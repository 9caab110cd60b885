package model

import (
	"math"

	"mmjoin/internal/sim"
)

// hybridPlan mirrors the executable hybrid-hash parameter rules: the
// resident fraction f0 of each S partition (sized to the Sproc buffer)
// and the overflow bucket count K.
func hybridPlan(c Calibration, in Inputs, rsi, sj float64) (f0 float64, k, tsize int) {
	f0 = 0.8 * float64(in.MSproc) / (sj * float64(in.S))
	if f0 > 1 {
		f0 = 1
	}
	if f0 < 0 {
		f0 = 0
	}
	k = in.K
	if k <= 0 {
		need := in.Fuzz * (1 - f0) * rsi * float64(in.R) / float64(in.MRproc)
		k = int(math.Ceil(need))
	}
	if f0 >= 1 {
		k = 0
	} else if k < 1 {
		k = 1
	}
	tsize = in.TSize
	if tsize <= 0 {
		tsize = 16
		if k > 0 {
			avgBucket := int((1 - f0) * rsi / float64(k))
			for tsize < avgBucket/4 {
				tsize *= 2
			}
		}
	}
	return f0, k, tsize
}

// PredictHybridHash evaluates the analytical model for the parallel
// pointer-based hybrid-hash join (the repository's future-work
// extension): the Grace analysis applied to the (1−f0) overflow portion,
// plus immediate-join costs for the resident portion, whose S pages fault
// once and then stay cached in the Sproc buffer.
func PredictHybridHash(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	rii := q.ri / d * in.Skew
	rpi := q.ri*in.Skew - rii
	rsi := q.ri * in.Skew

	f0, k, tsize := hybridPlan(c, in, rsi, q.sj)
	kEff := min(k, maxBuckets) // the executor's scatter fan-out (see PredictGrace)
	over := 1 - f0             // overflow fraction
	prpi := pages(rpi*float64(in.R), c.B)
	prsi := pages(over*rsi*float64(in.R), c.B)
	priiOver := pages(over*rii*float64(in.R), c.B)

	p := &Prediction{K: k, TSize: tsize}

	// Setup matches Grace (the RS mapping is just smaller).
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri)+c.OpenMap.Eval(q.psi)+
		c.NewMap.Eval(math.Max(1, prsi)+prpi)+c.OpenMap.Eval(math.Max(1, prsi)))))

	// Pass 0: Ri read; RPi written; only the overflow portion of Ri,i
	// is written to RSi. Resident-range joins read the f0·PSi prefix of
	// Si once (it then stays cached in the Sproc's buffer).
	band0 := q.pri + q.psi + prsi + prpi
	p.add("pass0 read Ri", sim.Time(q.pri*c.DTTR.Eval(band0)))
	p.add("pass0 write RPi", sim.Time(prpi*c.DTTW.Eval(band0)))
	if k > 0 {
		p.add("pass0 write RSi", sim.Time((priiOver+float64(k))*c.DTTW.Eval(band0)))
		fill0 := (d - 1) / (float64(c.B) / float64(in.R))
		thrash0 := GraceThrash(int(over*rii), kEff, int(q.frames), in.D, fill0)
		p.add("pass0 thrash", sim.Time(thrash0*(c.DTTR.Eval(band0)+c.DTTW.Eval(band0))))
	}
	p.add("resident Si faults", sim.Time(f0*q.psi*c.DTTR.Eval(band0)))

	// Pass 1: RPi read; overflow portion hashed into RSj.
	band1 := prsi + prpi
	p.add("pass1 read RPi", sim.Time(prpi*c.DTTR.Eval(band1)))
	if k > 0 {
		p.add("pass1 write RSi", sim.Time((over*prpi+float64(k))*c.DTTW.Eval(band1)))
		fill1 := 1 / (float64(c.B) / float64(in.R))
		thrash1 := GraceThrash(int(over*rpi), kEff, int(q.frames), 1, fill1)
		p.add("pass1 thrash", sim.Time(thrash1*(c.DTTR.Eval(band1)+c.DTTW.Eval(band1))))
	}

	// Probe: overflow buckets and the corresponding (1−f0)·PSi suffix.
	if k > 0 {
		bandProbe := math.Max(1, prsi/float64(k)/2)
		p.add("probe io", sim.Time((prsi+over*q.psi)*c.DTTR.Eval(bandProbe)))
		if t := restageIO(c, in, over*rsi, k, bandProbe); t > 0 {
			p.add("restage io", t)
		}
	}

	// CPU: every reference is mapped and hashed once; overflow objects
	// move to RSi and are hashed again at probe; all objects transfer
	// through the shared buffer exactly once.
	p.add("map", sim.Time(q.ri)*c.Map)
	p.add("hash pass0", sim.Time(rii)*c.Hash)
	p.add("hash pass1", sim.Time(rpi)*c.Hash)
	p.add("hash probe", sim.Time(over*rsi)*c.Hash)
	p.add("move pass0", sim.Time(q.ri*float64(in.R)*c.MTpp))
	p.add("move pass1", sim.Time(rpi*float64(in.R)*c.MTpp))
	p.add("transfer", sim.Time(rsi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rsi))
	return p, nil
}
