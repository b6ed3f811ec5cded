package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat: fixed at 100 by the Linux ABI on every
// architecture this runs on.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns user+system CPU time from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and
// may itself hold spaces or parentheses, so fields are counted from
// the last ')': utime and stime are fields 14 and 15 of the line.
func parseStatCPU(text string) (time.Duration, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")": field 3 (state) is rest[0], so field k is rest[k-3].
	rest := strings.Fields(text[end+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(rest))
	}
	utime, err := strconv.ParseUint(rest[14-3], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(rest[15-3], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseStatusKB returns the value of a "Key:  N kB" line of
// /proc/<pid>/status (VmHWM, VmRSS) in kilobytes.
func parseStatusKB(text, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(val)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a process's cumulative user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procMemMB reads one /proc/<pid>/status memory line in MiB.
func procMemMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), key)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
