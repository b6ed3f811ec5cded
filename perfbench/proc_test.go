package main

import (
	"os"
	"testing"
	"time"
)

// statFixture is a /proc/<pid>/stat line whose command holds a space
// and a ')' — fields must be counted from the last ')'. utime=1234,
// stime=56.
const statFixture = "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 1843 0 0 0 1234 56 0 0 20 0 9 0 12345 1357905920 12288 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"

const statusFixture = `Name:	serve
Umask:	0022
State:	S (sleeping)
VmPeak:	 1326124 kB
VmSize:	 1326124 kB
VmHWM:	  206340 kB
VmRSS:	  201612 kB
Threads:	9
`

func TestParseStatCPU(t *testing.T) {
	got, err := parseStatCPU(statFixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234 + 56) * 10 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 serve S 1", "4242 (serve) S 1 2 3", "4242 (serve) S 1 4242 4242 0 -1 4194560 1843 0 0 0 x 56 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	for key, want := range map[string]int64{"VmHWM": 206340, "VmRSS": 201612, "VmPeak": 1326124} {
		got, err := parseStatusKB(statusFixture, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %d kB, want %d", key, got, want)
		}
	}
	if _, err := parseStatusKB(statusFixture, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("non-kB unit accepted")
	}
}

// TestProcSelf reads the live files of this process, so the readers
// are exercised against the kernel's real format too.
func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	hwm, err := procMemMB(os.Getpid(), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if hwm <= 0 {
		t.Errorf("VmHWM = %g MB", hwm)
	}
}
