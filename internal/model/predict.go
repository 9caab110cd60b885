package model

import (
	"fmt"
	"math"

	"mmjoin/internal/sim"
)

// Inputs are the workload and tuning parameters of one predicted join,
// mirroring join.Params. Zero-valued tuning fields select the same
// defaults the executable algorithms use.
type Inputs struct {
	NR, NS int64 // total objects in R and S
	R, S   int64 // object sizes, bytes
	Ptr    int64 // S-pointer size, bytes
	D      int
	Skew   float64 // max |Ri,j| / (|Ri|/D); 1.0 for uniform references

	MRproc, MSproc, G int64

	// DistinctS is the number of distinct S objects referenced per
	// partition (the Mackert–Lohman i parameter). Zero selects the
	// paper's assumption that all references are distinct (|RSi|), which
	// is accurate for uniform workloads but pessimistic under Zipf.
	DistinctS int64

	// Sort-merge tuning (0 ⇒ paper defaults).
	IRun, NRunABL, NRunLast int
	// Grace tuning (0 ⇒ paper defaults).
	K, TSize int
	Fuzz     float64

	// IndexFanout is the per-node key capacity of the store's persistent
	// B-tree indexes, used by the index-path predictions. Zero selects
	// the executor's 4 KiB-node capacity (253 keys; see
	// mstore.indexNodeBytes and btMaxKeys).
	IndexFanout int

	// ColdSproc selects the paper's literal §5.3 formula, which charges
	// pass 1's Si faults as if the Sproc buffer were cold. The default
	// (false) applies a warm-continuation refinement: passes 0 and 1 are
	// one reference stream, so pass 1 faults are Ylru(x0+x1) − Ylru(x0).
	// The refinement matters once MSproc approaches |Si| and the buffer
	// stays warm across passes.
	ColdSproc bool
}

func (in *Inputs) withDefaults(c Calibration) error {
	if in.D < 1 || in.NR < 1 || in.NS < 1 {
		return fmt.Errorf("model: bad inputs D=%d NR=%d NS=%d", in.D, in.NR, in.NS)
	}
	if in.MRproc < c.B {
		return fmt.Errorf("model: MRproc=%d below one page", in.MRproc)
	}
	if in.Skew == 0 {
		in.Skew = 1
	}
	if in.MSproc == 0 {
		in.MSproc = in.MRproc
	}
	if in.G == 0 {
		in.G = c.B
	}
	if in.Fuzz == 0 {
		in.Fuzz = 1.2
	}
	if in.IndexFanout < 0 {
		return fmt.Errorf("model: negative index fanout %d", in.IndexFanout)
	}
	if in.IndexFanout == 0 {
		in.IndexFanout = 253 // btMaxKeys(4096), the executor's node size
	}
	return nil
}

// maxBuckets mirrors the executor's bucket cap (mstore.MaxBuckets): a
// real-store scatter never writes to more than this many buckets per S
// partition, so the urn-model thrash terms see min(K, maxBuckets)
// destinations. The model keeps the paper's K everywhere else — the
// simulator runs it uncapped.
const maxBuckets = 256

// Component is one named term of a prediction.
type Component struct {
	Name string
	T    sim.Time
}

// Prediction is the model's estimate of total elapsed time per Rproc,
// with an additive breakdown.
type Prediction struct {
	Total      sim.Time
	Components []Component
	// Parameter choices implied by the inputs (mirrors join.Result).
	IRun, NPass, LRun int
	K, TSize          int
}

func (p *Prediction) add(name string, t sim.Time) {
	if t < 0 {
		t = 0
	}
	p.Components = append(p.Components, Component{Name: name, T: t})
	p.Total += t
}

// CheckConsistency verifies the prediction's internal bookkeeping: the
// additive breakdown sums exactly to Total, no component is negative,
// and the plan parameters are non-negative (conformance-suite hook).
func (p *Prediction) CheckConsistency() error {
	var sum sim.Time
	for _, c := range p.Components {
		if c.T < 0 {
			return fmt.Errorf("model: component %q negative (%v)", c.Name, c.T)
		}
		sum += c.T
	}
	if sum != p.Total {
		return fmt.Errorf("model: components sum to %v but Total is %v", sum, p.Total)
	}
	if p.Total <= 0 {
		return fmt.Errorf("model: non-positive Total %v", p.Total)
	}
	if p.IRun < 0 || p.NPass < 0 || p.LRun < 0 || p.K < 0 || p.TSize < 0 {
		return fmt.Errorf("model: negative plan parameter (IRUN %d NPASS %d LRUN %d K %d TSIZE %d)",
			p.IRun, p.NPass, p.LRun, p.K, p.TSize)
	}
	return nil
}

// quantities derives the per-partition object and page counts shared by
// the three analyses.
type quantities struct {
	ri, sj   float64 // |Ri|, |Sj| objects
	pri, psi float64 // pages
	gObjs    float64 // objects per G buffer exchange
	frames   float64 // MRproc/B
	sframes  float64 // MSproc/B
}

func derive(c Calibration, in Inputs) quantities {
	var q quantities
	q.ri = float64(in.NR) / float64(in.D)
	q.sj = float64(in.NS) / float64(in.D)
	q.pri = pages(q.ri*float64(in.R), c.B)
	q.psi = pages(q.sj*float64(in.S), c.B)
	q.gObjs = math.Max(1, float64(in.G)/float64(in.R+in.Ptr+in.S))
	q.frames = math.Max(1, float64(in.MRproc)/float64(c.B))
	q.sframes = math.Max(1, float64(in.MSproc)/float64(c.B))
	return q
}

func pages(bytes float64, b int64) float64 { return math.Ceil(bytes / float64(b)) }

// gSwitch is the context-switch cost of joining h objects through the
// shared buffer: two switches per buffer exchange.
func gSwitch(c Calibration, q quantities, h float64) sim.Time {
	return sim.Time(2 * float64(c.CS) * math.Ceil(h/q.gObjs))
}

// PredictNestedLoops evaluates the §5.3 analysis.
func PredictNestedLoops(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	rii := float64(in.NR) / (d * d) * in.Skew
	rpi := q.ri - rii
	rsi := q.ri // |RSi|: references to Si (expected |R|/D under uniformity)
	distinct := rsi
	if in.DistinctS > 0 {
		distinct = float64(in.DistinctS)
	}
	prpi := pages(rpi*float64(in.R), c.B)

	p := &Prediction{}

	// Setup: serialized mapping manipulation, hence the factor D.
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri)+c.OpenMap.Eval(q.psi)+c.NewMap.Eval(prpi))))

	// Pass 0: Ri read sequentially, RPi written (mostly) randomly, Si
	// read randomly; all dtt costs at the pass-0 band.
	band0 := q.pri + q.psi + prpi
	p.add("pass0 read Ri", sim.Time(q.pri*c.DTTR.Eval(band0)))
	p.add("pass0 write RPi", sim.Time(prpi*c.DTTW.Eval(band0)))
	p.add("pass0 read Si", sim.Time(Ylru(rsi, q.psi, distinct, q.sframes, rii)*c.DTTR.Eval(band0)))

	// Pass 1: RPi read sequentially, Si read randomly.
	band1 := q.psi + prpi
	p.add("pass1 read RPi", sim.Time(prpi*c.DTTR.Eval(band1)))
	pass1Faults := Ylru(rsi, q.psi, distinct, q.sframes, rpi)
	if !in.ColdSproc {
		// Warm continuation: the Sproc buffer already holds the pages
		// faulted during pass 0.
		pass1Faults = Ylru(rsi, q.psi, distinct, q.sframes, rii+rpi) -
			Ylru(rsi, q.psi, distinct, q.sframes, rii)
	}
	p.add("pass1 read Si", sim.Time(pass1Faults*c.DTTR.Eval(band1)))

	// CPU: moves, buffer transfers, context switches, partition mapping.
	p.add("move RPi", sim.Time(rpi*float64(in.R)*c.MTpp))
	p.add("transfer pass0", sim.Time(rii*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("transfer pass1", sim.Time(rpi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rii)+gSwitch(c, q, rpi))
	p.add("map", sim.Time(q.ri)*c.Map)
	return p, nil
}

// smPlan computes IRUN, NRUNABL, NRUNLAST, NPASS and LRUN exactly as the
// executable sort-merge does.
func smPlan(c Calibration, in Inputs, rsi float64) (irun, nrunABL, nrunLast, npass, lrun int) {
	irun = in.IRun
	if irun <= 0 {
		irun = int(in.MRproc / (in.R + c.HP))
	}
	if irun < 1 {
		irun = 1
	}
	nrunABL = in.NRunABL
	if nrunABL <= 0 {
		nrunABL = int(in.MRproc / (3 * c.B))
	}
	if nrunABL < 2 {
		nrunABL = 2
	}
	nrunLast = in.NRunLast
	if nrunLast <= 0 {
		nrunLast = int(in.MRproc / (2 * c.B))
	}
	if nrunLast < 2 {
		nrunLast = 2
	}
	runs := int(math.Ceil(rsi / float64(irun)))
	if runs < 1 {
		runs = 1
	}
	npass = 1
	for runs > nrunLast {
		runs = (runs + nrunABL - 1) / nrunABL
		npass++
	}
	lrun = runs
	return irun, nrunABL, nrunLast, npass, lrun
}

// PredictSortMerge evaluates the §6.3 analysis.
func PredictSortMerge(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	// With inter-phase synchronization the worst case carries the skew:
	// |Ri,i| = |Ri|/D·skew and |RPi| = |Ri|·skew·(1−1/D).
	rii := q.ri / d * in.Skew
	rpi := q.ri*in.Skew - rii
	rsi := q.ri * in.Skew
	prpi := pages(rpi*float64(in.R), c.B)
	prsi := pages(rsi*float64(in.R), c.B)
	pmerge := prsi

	irun, nrunABL, nrunLast, npass, lrun := smPlan(c, in, rsi)
	_ = nrunLast

	p := &Prediction{IRun: irun, NPass: npass, LRun: lrun}

	// Setup: Ri, Si, RSi, RPi, Mergei, plus the source/destination swap
	// (deleteMap+newMap) on all but the last merging pass.
	setup := d * (c.OpenMap.Eval(q.pri) + c.OpenMap.Eval(q.psi) +
		c.NewMap.Eval(prsi) + c.NewMap.Eval(prpi) + c.NewMap.Eval(pmerge))
	setup += (c.DeleteMap.Eval(pmerge) + c.NewMap.Eval(pmerge)) * float64(npass-1)
	p.add("setup", sim.Time(setup))

	// Pass 0: Ri read sequentially; RSi and RPi written.
	band0 := q.pri + q.psi + prsi + prpi
	p.add("pass0 read Ri", sim.Time(q.pri*c.DTTR.Eval(band0)))
	p.add("pass0 write RSi", sim.Time(prsi/d*c.DTTW.Eval(band0)))
	p.add("pass0 write RPi", sim.Time(prpi*c.DTTW.Eval(band0)))

	// Pass 1: RPi read, RSi written.
	band1 := prsi + prpi
	p.add("pass1 read RPi", sim.Time(prpi*c.DTTR.Eval(band1)))
	p.add("pass1 write RSi", sim.Time(prsi*(1-1/d)*c.DTTW.Eval(band1)))

	// Pass 2 (heap-sorting runs in place): band is twice a run.
	band2 := 2 * float64(in.R) * float64(irun) / float64(c.B)
	if band2 < 1 {
		band2 = 1
	}
	p.add("pass2 read RSi", sim.Time(prsi*c.DTTR.Eval(band2)))
	p.add("pass2 write RSi", sim.Time(prsi*c.DTTW.Eval(band2)))
	heapBuild := 1.77*rsi*(float64(c.Compare)+float64(c.Swap)/2) + rsi*float64(c.Transfer)
	heapSort := rsi * math.Log2(math.Max(2, float64(irun))) * (float64(c.Compare) + float64(c.Transfer))
	p.add("pass2 heap", sim.Time(heapBuild+heapSort))
	p.add("pass2 move", sim.Time(rsi*float64(in.R)*c.MTpp))

	// Merging passes before the last: read and write RSi/Mergei.
	if npass > 1 {
		bandABL := prsi + prpi + pmerge
		io := (prsi*c.DTTR.Eval(bandABL) + prsi*c.DTTW.Eval(bandABL)) * float64(npass-1)
		p.add("merge io", sim.Time(io))
		heap := (gMerge(c, nrunABL) + 2*float64(c.Transfer)) * rsi * float64(npass-1)
		p.add("merge heap", sim.Time(heap))
		p.add("merge move", sim.Time(rsi*float64(in.R)*c.MTpp*float64(npass-1)))
	}

	// Last pass: merge LRUN runs while reading Si sequentially.
	bandLast := q.psi + prsi + (prpi+pmerge)*float64((npass-1)%2)
	p.add("last read RSi", sim.Time(prsi*c.DTTR.Eval(bandLast)))
	p.add("last read Si", sim.Time(q.psi*c.DTTR.Eval(bandLast)))
	p.add("last heap", sim.Time((gMerge(c, lrun)+2*float64(c.Transfer))*rsi))
	p.add("last transfer", sim.Time(rsi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rsi))

	// Pass 0/1 object moves and partition mapping.
	p.add("move pass0", sim.Time(q.ri*float64(in.R)*c.MTpp))
	p.add("move pass1", sim.Time(rpi*float64(in.R)*c.MTpp))
	p.add("map", sim.Time(q.ri)*c.Map)
	return p, nil
}

// gMerge is the per-element cost (ns) of the delete-insert operation on a
// merge heap of h runs: ~log2 h levels of two compares and a swap.
func gMerge(c Calibration, h int) float64 {
	if h < 2 {
		h = 2
	}
	levels := math.Log2(float64(h))
	return (2*float64(c.Compare) + float64(c.Swap)) * levels
}

// gracePlan mirrors the executable Grace parameter rules.
func gracePlan(in Inputs, rsi float64) (k, tsize int) {
	k = in.K
	if k <= 0 {
		need := in.Fuzz * rsi * float64(in.R) / float64(in.MRproc)
		k = int(math.Ceil(need))
	}
	if k < 1 {
		k = 1
	}
	if float64(k) > rsi && rsi >= 1 {
		k = int(rsi)
	}
	tsize = in.TSize
	if tsize <= 0 {
		avgBucket := int(rsi) / k
		tsize = 16
		for tsize < avgBucket/4 {
			tsize *= 2
		}
	}
	return k, tsize
}

// PredictGrace evaluates the §7.3 analysis, including the urn-model
// estimate of premature page replacement at low memory.
func PredictGrace(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	rii := q.ri / d * in.Skew
	rpi := q.ri*in.Skew - rii
	rsi := q.ri * in.Skew
	prii := pages(rii*float64(in.R), c.B)
	prpi := pages(rpi*float64(in.R), c.B)
	prsi := pages(rsi*float64(in.R), c.B)

	k, tsize := gracePlan(in, rsi)
	kEff := min(k, maxBuckets) // the executor's scatter fan-out
	p := &Prediction{K: k, TSize: tsize}

	// Setup: Ri, Si opened; RSi+RPi created; RSi re-opened for pass 1+j.
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri)+c.OpenMap.Eval(q.psi)+
		c.NewMap.Eval(prsi+prpi)+c.OpenMap.Eval(prsi))))

	// Pass 0.
	band0 := q.pri + q.psi + prsi + prpi
	p.add("pass0 read Ri", sim.Time(q.pri*c.DTTR.Eval(band0)))
	p.add("pass0 write RPi", sim.Time(prpi*c.DTTW.Eval(band0)))
	p.add("pass0 write RSi", sim.Time((prii+float64(k))*c.DTTW.Eval(band0)))

	// Thrashing: premature replacements of bucket pages, each one extra
	// write plus one extra read. Fill rate: the D−1 RPi,j streams fill a
	// fresh page every B/r objects each, per hashed object.
	fill0 := (d - 1) / (float64(c.B) / float64(in.R))
	thrash0 := GraceThrash(int(rii), kEff, int(q.frames), in.D, fill0)
	p.add("pass0 thrash", sim.Time(thrash0*(c.DTTR.Eval(band0)+c.DTTW.Eval(band0))))

	// Pass 1.
	band1 := prsi + prpi
	p.add("pass1 read RPi", sim.Time(prpi*c.DTTR.Eval(band1)))
	p.add("pass1 write RSi", sim.Time((prpi+float64(k))*c.DTTW.Eval(band1)))
	// The same urn argument applies while hashing RPi,j into RSj's
	// buckets (the companion stream is the sequential RPi read).
	fill1 := 1 / (float64(c.B) / float64(in.R))
	thrash1 := GraceThrash(int(rpi), kEff, int(q.frames), 1, fill1)
	p.add("pass1 thrash", sim.Time(thrash1*(c.DTTR.Eval(band1)+c.DTTW.Eval(band1))))

	// Pass 1+j: read each bucket and the corresponding Si range; the
	// band approximates half the objects resident in the hash table.
	bandProbe := math.Max(1, prsi/float64(k)/2)
	p.add("probe io", sim.Time((prsi+q.psi)*c.DTTR.Eval(bandProbe)))

	if t := restageIO(c, in, rsi, k, bandProbe); t > 0 {
		p.add("restage io", t)
	}

	// CPU.
	p.add("map", sim.Time(q.ri)*c.Map)
	p.add("hash pass0", sim.Time(rii)*c.Hash)
	p.add("hash pass1", sim.Time(rpi)*c.Hash)
	p.add("hash probe", sim.Time(rsi)*c.Hash)
	p.add("move pass0", sim.Time(q.ri*float64(in.R)*c.MTpp))
	p.add("move pass1", sim.Time(rpi*float64(in.R)*c.MTpp))
	p.add("probe transfer", sim.Time(rsi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rsi))
	return p, nil
}

// restageIO costs the dynamic spill/restage passes the executor performs
// when skew concentrates references into one bucket whose table
// overflows the memory grant. The hottest bucket holds about
// rsi/k·Skew references; when its bytes exceed MRproc, the executor
// rewrites it to disk once per restage pass (read + write), and each
// pass divides the bucket by up to the maximum fan-out (64). At
// Skew≈1 with a grant-derived K the term is zero — the honest-planner
// guarantee that uniform predictions are untouched.
func restageIO(c Calibration, in Inputs, rsi float64, k int, band float64) sim.Time {
	if k < 1 || in.MRproc <= 0 {
		return 0
	}
	hotBytes := rsi / float64(k) * in.Skew * float64(in.R)
	if hotBytes <= float64(in.MRproc) {
		return 0
	}
	passes := math.Ceil(math.Log(hotBytes/float64(in.MRproc)) / math.Log(64))
	passes = math.Max(passes, 1)
	return sim.Time(passes * pages(hotBytes, c.B) * (c.DTTR.Eval(band) + c.DTTW.Eval(band)))
}
