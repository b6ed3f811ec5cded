package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// attackBody renders an attack request with an optional method override.
func attackBody(rel string, bprime float64, inf string, maxStates int) string {
	b := fmt.Sprintf(`{"release":%q,"bprime":%g`, rel, bprime)
	if inf != "" {
		b += fmt.Sprintf(`,"inference":%q`, inf)
	}
	if maxStates > 0 {
		b += fmt.Sprintf(`,"max_states":%d`, maxStates)
	}
	return b + "}"
}

// warmRelease ingests a dataset and anonymizes it, returning the
// release id.
func warmRelease(t *testing.T, ts *httptest.Server, n int, k int) string {
	t.Helper()
	ds := createDataset(t, ts, n, 1)
	code, body := post(t, ts, "/v1/anonymize",
		fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":%d,"l":3}`, ds, k))
	if code != http.StatusOK {
		t.Fatalf("anonymize: status %d: %s", code, body)
	}
	return mustJSON[AnonymizeResponse](t, body).Release
}

// TestInferenceDeterministicAcrossWorkers pins, per method, the
// byte-identical-response contract across pool sizes: each inference
// selection produces exactly one body no matter how the engine
// parallelizes.
func TestInferenceDeterministicAcrossWorkers(t *testing.T) {
	type variant struct {
		inf       string
		maxStates int
	}
	variants := []variant{
		{"", 0},
		{"exact", 0},
		{"adaptive", 0},
		{"adaptive", 64},
	}
	bodies := make(map[variant][]byte)
	for _, workers := range []int{-1, 0} {
		_, ts := newTestServer(t, workers)
		rel := warmRelease(t, ts, 300, 3)
		for _, v := range variants {
			code, body := post(t, ts, "/v1/attack", attackBody(rel, 0.4, v.inf, v.maxStates))
			if code != http.StatusOK {
				t.Fatalf("attack inference=%q workers=%d: status %d: %s", v.inf, workers, code, body)
			}
			if prev, ok := bodies[v]; ok {
				if !bytes.Equal(prev, body) {
					t.Errorf("inference=%q max_states=%d: body differs across worker settings:\n%s\nvs\n%s",
						v.inf, v.maxStates, prev, body)
				}
			} else {
				bodies[v] = body
			}
		}
	}
	// The echo field carries the method, and only when non-default.
	if strings.Contains(string(bodies[variant{"", 0}]), `"inference"`) {
		t.Errorf("default attack body leaks an inference field: %s", bodies[variant{"", 0}])
	}
	for _, v := range variants[1:] {
		if !strings.Contains(string(bodies[v]), fmt.Sprintf(`"inference":%q`, v.inf)) {
			t.Errorf("inference=%q body missing the echo field: %s", v.inf, bodies[v])
		}
	}
}

// TestInferenceCacheKeySeparation proves the method is part of the
// attack's cache identity: the same (release, b') under different
// methods yields different results, each stable under repetition, and
// concurrent mixed-method traffic never collapses onto one
// singleflight result.
func TestInferenceCacheKeySeparation(t *testing.T) {
	_, ts := newTestServer(t, 0)
	rel := warmRelease(t, ts, 300, 3)

	fetch := func(inf string) []byte {
		t.Helper()
		code, body := post(t, ts, "/v1/attack", attackBody(rel, 0.4, inf, 0))
		if code != http.StatusOK {
			t.Fatalf("attack inference=%q: status %d: %s", inf, code, body)
		}
		return body
	}
	omega := fetch("")
	exact := fetch("exact")
	if bytes.Equal(omega, exact) {
		t.Fatalf("omega and exact produced identical bodies — method not in the cache key?\n%s", omega)
	}
	// "omega" spelled out is the default, not a third identity.
	if spelled := fetch("omega"); !bytes.Equal(spelled, omega) {
		t.Errorf("inference=omega differs from the default:\n%s\nvs\n%s", spelled, omega)
	}
	// Stability: repeats reproduce each method's own body.
	if again := fetch("exact"); !bytes.Equal(again, exact) {
		t.Errorf("exact repeat differs:\n%s\nvs\n%s", again, exact)
	}

	// Concurrent mixed-method fire: every response must match its own
	// method's pinned body (a shared singleflight result would hand one
	// method the other's numbers).
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		inf, want := "", omega
		if i%2 == 1 {
			inf, want = "exact", exact
		}
		wg.Add(1)
		go func(inf string, want []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/attack", "application/json",
				strings.NewReader(attackBody(rel, 0.4, inf, 0)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf.Bytes(), want) {
				errs <- fmt.Errorf("inference=%q got another method's body:\n%s", inf, buf.Bytes())
			}
		}(inf, want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAdaptiveThresholdBoundary pins the adaptive method's behavior at
// the service layer as max_states straddles the groups' state counts:
// a bound below every group degrades to the Ω numbers, a bound above
// every group reproduces exact — and the two differ, so the table is
// discriminating.
func TestAdaptiveThresholdBoundary(t *testing.T) {
	_, ts := newTestServer(t, 0)
	rel := warmRelease(t, ts, 300, 3)

	risks := func(inf string, maxStates int) AttackResponse {
		t.Helper()
		code, body := post(t, ts, "/v1/attack", attackBody(rel, 0.4, inf, maxStates))
		if code != http.StatusOK {
			t.Fatalf("attack inference=%q max_states=%d: status %d: %s", inf, maxStates, code, body)
		}
		return mustJSON[AttackResponse](t, body)
	}
	omega := risks("", 0)
	exact := risks("exact", 0)
	if omega.MeanRisk == exact.MeanRisk && omega.WorstRisk == exact.WorstRisk {
		t.Fatal("omega and exact agree on this release; the boundary table would not discriminate")
	}
	for _, tc := range []struct {
		maxStates int
		want      AttackResponse
		side      string
	}{
		// Any nonempty group has at least one distinct sensitive value,
		// so its state count is at least 2: max_states=1 is below every
		// group and adaptive is Ω everywhere.
		{1, omega, "omega"},
		// Far above any group of this size: exact everywhere.
		{1 << 30, exact, "exact"},
	} {
		got := risks("adaptive", tc.maxStates)
		if got.MeanRisk != tc.want.MeanRisk || got.WorstRisk != tc.want.WorstRisk ||
			got.Vulnerable != tc.want.Vulnerable {
			t.Errorf("adaptive max_states=%d: got mean=%v worst=%v vulnerable=%d, want the %s side (mean=%v worst=%v vulnerable=%d)",
				tc.maxStates, got.MeanRisk, got.WorstRisk, got.Vulnerable,
				tc.side, tc.want.MeanRisk, tc.want.WorstRisk, tc.want.Vulnerable)
		}
	}
}

// TestInferenceValidationAndErrors covers the request-level contract:
// unknown methods are 400s, exact is rejected for releases, and an
// exact attack that hits an oversized group maps ErrTooLarge to a 422
// recommending adaptive.
func TestInferenceValidationAndErrors(t *testing.T) {
	_, ts := newTestServer(t, 0)
	rel := warmRelease(t, ts, 300, 3)

	if code, body := post(t, ts, "/v1/attack", attackBody(rel, 0.4, "bogus", 0)); code != http.StatusBadRequest {
		t.Errorf("unknown inference: status %d: %s", code, body)
	}
	ds := createDataset(t, ts, 300, 1)
	if code, body := post(t, ts, "/v1/anonymize",
		fmt.Sprintf(`{"dataset":%q,"model":"distinct","k":3,"l":3,"inference":"exact"}`, ds)); code != http.StatusBadRequest {
		t.Errorf("exact anonymize: status %d: %s", code, body)
	}
	// An adaptive release is a distinct artifact from the default one.
	code, body := post(t, ts, "/v1/anonymize",
		fmt.Sprintf(`{"dataset":%q,"model":"bt","k":3,"l":3,"inference":"adaptive"}`, ds))
	if code != http.StatusOK {
		t.Fatalf("adaptive anonymize: status %d: %s", code, body)
	}
	adaptiveRel := mustJSON[AnonymizeResponse](t, body).Release
	code, body = post(t, ts, "/v1/anonymize",
		fmt.Sprintf(`{"dataset":%q,"model":"bt","k":3,"l":3}`, ds))
	if code != http.StatusOK {
		t.Fatalf("default anonymize: status %d: %s", code, body)
	}
	if defRel := mustJSON[AnonymizeResponse](t, body).Release; defRel == adaptiveRel {
		t.Error("adaptive and default anonymize share a release id")
	}

	// A huge k forces groups whose exact state space blows past the
	// bound, so exact refuses with the client-error mapping while
	// adaptive degrades gracefully on the very same release.
	bigRel := warmRelease(t, ts, 300, 150)
	code, body = post(t, ts, "/v1/attack", attackBody(bigRel, 0.4, "exact", 0))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized exact attack: status %d (want 422): %s", code, body)
	}
	if !strings.Contains(string(body), "adaptive") {
		t.Errorf("422 body does not recommend adaptive: %s", body)
	}
	if code, body = post(t, ts, "/v1/attack", attackBody(bigRel, 0.4, "adaptive", 0)); code != http.StatusOK {
		t.Errorf("adaptive attack on oversized groups: status %d: %s", code, body)
	}
}
