package model

import (
	"testing"

	"mmjoin/internal/mstore"
	"mmjoin/internal/sim"
)

// TestThrashFanoutMatchesExecutorCap pins the urn-model thrash fan-out
// to the executor's bucket cap: the real store scatters into at most
// mstore.MaxBuckets buckets per S partition, so a K past the cap must
// thrash exactly like K = MaxBuckets, while one below it still thrashes
// differently. The prediction itself keeps the paper's K.
func TestThrashFanoutMatchesExecutorCap(t *testing.T) {
	if maxBuckets != mstore.MaxBuckets {
		t.Fatalf("model fan-out cap %d, executor cap %d", maxBuckets, mstore.MaxBuckets)
	}
	c := calibForTest(t)
	// A small store at scarce memory: nonzero thrash, and the urn DP
	// stays cheap at K near the cap.
	in := defaultInputs(16 << 10)
	in.NR, in.NS = 8192, 8192
	for name, predict := range map[string]func(Calibration, Inputs) (*Prediction, error){
		"grace": PredictGrace, "hybrid-hash": PredictHybridHash,
	} {
		thrash := func(k int) [2]sim.Time {
			in := in
			in.K = k
			p, err := predict(c, in)
			if err != nil {
				t.Fatal(err)
			}
			if p.K != k {
				t.Fatalf("%s: prediction K = %d, want the requested %d", name, p.K, k)
			}
			var th [2]sim.Time
			for _, comp := range p.Components {
				switch comp.Name {
				case "pass0 thrash":
					th[0] = comp.T
				case "pass1 thrash":
					th[1] = comp.T
				}
			}
			if th[0] <= 0 {
				t.Fatalf("%s K=%d: no pass-0 thrash to compare", name, k)
			}
			return th
		}
		atCap := thrash(maxBuckets)
		if past := thrash(600); past != atCap {
			t.Errorf("%s: K=600 thrash %v, want the capped %v", name, past, atCap)
		}
		if below := thrash(200); below == atCap {
			t.Errorf("%s: K=200 thrash %v equals the capped value", name, below)
		}
	}
}
