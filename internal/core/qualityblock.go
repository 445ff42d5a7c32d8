package core

import (
	"math"

	"emprof/internal/trace"
)

// processBlock is the monitor stage kernel: it consumes len(xs) raw
// samples and writes the sanitised value and impairment flags of each to
// san and flags (both at least len(xs) long). Retroactive flag patches
// (always shallower than the normalisation half-window) that land inside
// the block are applied to flags directly; patches that reach positions
// before the block are reported through patchOlder(back, f), where back
// counts positions before the block start (1 = the position immediately
// preceding it) — patchOlder returns false when the position does not
// exist (the stream start), which ends the patch run. Resyncs are
// reported through onResync with the block-relative sample index.
//
// The kernel alternates two loops over one monitor state. The settled
// fast run (settledRun) takes the uneventful samples, which are almost
// all of a capture; the general step (generalRun) takes the first sample
// the fast run declines and every sample after it until the monitor is
// settled again. The general step is the whole monitor and the only code
// that flags, resyncs or emits. The readable per-sample form of the same
// monitor is the test oracle (oracle_test.go), which compares the kernel
// with it sample for sample, including the full quality record and every
// piece of exported state.
//
// An attached trace observer receives one Resync event per re-seed and
// one QualityFlag event per flagged sample, in sample order. The fast run
// emits nothing, because its samples carry no flag and no resync, so it
// runs with or without an observer.
func (m *monitor) processBlock(xs, san []float64, flags []qflag, patchOlder func(back int, f qflag) bool, onResync func(i int)) {
	for i := 0; i < len(xs); {
		i += m.settledRun(xs[i:], san[i:], flags[i:])
		if i < len(xs) {
			i = m.generalRun(xs, san, flags, i, patchOlder, onResync)
		}
	}
}

// settled reports whether the monitor may enter the fast run: no step
// resync is pending, the busy reference is live and positive, no
// dropout run is open (so the next sample cannot end a long gap), and a
// previous sample anchors the distinctness arm.
func settled(stepPending, refReady bool, ref float64, zeroRun int, havePrev bool) bool {
	return !stepPending && refReady && ref > 0 && zeroRun == 0 && havePrev
}

// settledRun is the monitor's fast run. It commits samples from the front
// of xs while the monitor is settled and each sample is uneventful,
// writing san and flags, and returns how many it committed. A sample is
// uneventful when
//
//   - it is positive (no NaN, dropout or negative sample);
//   - it is at most burstK·ref and stepRatio·ref (no burst, no raw step
//     high);
//   - with the updated distinctness EMA and run length it does not
//     confirm a clip;
//   - the busy tracker's moving max, divided by ref, stays inside the
//     step band, and inside the shift band when that band is armed.
//
// +Inf fails the second test, or the band test when burstK·ref overflows,
// since the moving max is then +Inf.
//
// Such a sample passes through unflagged, fires no resync and no observer
// event, zeroes the step and shift candidacies and moves the busy
// reference by its EMA step, exactly as the general step would. Every
// test runs before anything is committed, so the run stops at the first
// sample that fails one and the general step replays that sample from
// unchanged state. The run also stops one sample short of the busy
// tracker's block end, so the suffix refill (EndBlock) stays in the
// general step. A monitor that is not settled commits nothing.
//
// The loop carries about a dozen values, few enough to stay in
// registers, where the general step carries three times as many and
// spills most of them to the stack.
func (m *monitor) settledRun(xs, san []float64, flags []qflag) int {
	if !settled(m.stepResyncPending, m.refReady, m.ref, m.zeroRun, m.havePrev) {
		return 0
	}
	sb := m.smax.Block()
	n := min(len(xs), len(sb.Cur)-1-sb.Pos)
	if n <= 0 {
		return 0
	}
	xs, san, flags = xs[:n], san[:n], flags[:n]
	cur, suf, pre := sb.Cur[sb.Pos:][:n], sb.Suf[sb.Pos+1:][:n], sb.Pre

	// x > burstK·ref || x > stepRatio·ref is x > min(burstK, stepRatio)·ref,
	// and the step and shift band tests fold the same way, because
	// rounding a product by ref > 0 is monotone in the other factor. The
	// other parameters are read through m inside the loop: they sit on
	// rare paths or off the loop-carried chains, and leaving them in
	// memory keeps the loop's state in registers.
	highK := min(m.burstK, m.stepRatio)
	bandHi, bandLo := m.stepRatio, 1/m.stepRatio
	if sr := m.shiftRatio; sr > 0 {
		bandHi, bandLo = min(bandHi, sr), max(bandLo, 1/sr)
	}

	ref := m.ref
	distinct, prevX := m.distinct, m.prevX
	runVal, runLen, clipActive := m.runVal, m.runLen, m.clipActive
	sinceHigh, sinceShiftHigh := m.sinceHigh, m.sinceShiftHigh
	i := 0
	for ; i < len(xs); i++ {
		x := xs[i]
		if !(x > 0) || x > highK*ref {
			break
		}
		d := 0.0
		if x != prevX {
			d = 1
		}
		dist := distinct + m.distinctAlpha*(d-distinct)
		rl, active := runLen+1, clipActive
		if x != runVal {
			rl, active = 1, false
		}
		if dist > 0.9 && rl >= m.clipRun && x >= m.clipMinFrac*ref {
			break
		}
		p := pre
		if x >= p {
			p = x
		}
		sm := p
		if v := suf[i]; v > sm {
			sm = v
		}
		ratio := sm / ref
		if ratio > bandHi || ratio < bandLo {
			break
		}

		cur[i], pre = x, p
		distinct, prevX, runVal, runLen, clipActive = dist, x, x, rl, active
		if sinceHigh < 1<<30 {
			sinceHigh++
		}
		if m.shiftRatio > 0 {
			if x > m.shiftRatio*ref {
				sinceShiftHigh = 0
			} else if sinceShiftHigh < 1<<30 {
				sinceShiftHigh++
			}
		}
		ref += m.refAlpha * (sm - ref)
		san[i], flags[i] = x, 0
	}
	if i == 0 {
		return 0
	}

	m.smax.SetBlock(sb.Pos+i, pre, i)
	m.q.Samples += int64(i)
	m.ref = ref
	m.distinct, m.prevX, m.lastGood = distinct, prevX, prevX
	m.runVal, m.runLen, m.clipActive = runVal, runLen, clipActive
	m.sinceHigh, m.sinceShiftHigh = sinceHigh, sinceShiftHigh
	m.stepDir, m.stepLen = 0, 0
	if m.shiftRatio > 0 {
		m.shiftDir, m.shiftLen = 0, 0
	}
	return i
}

// generalRun is the general step: the whole per-sample monitor, with its
// hot state hoisted into locals for the run. It processes xs[i0] and the
// samples after it until the monitor is settled again (or the block
// ends), and returns the index of the next unprocessed sample. The
// nil-observer path pays one predictable branch per sample.
func (m *monitor) generalRun(xs, san []float64, flags []qflag, i0 int, patchOlder func(back int, f qflag) bool, onResync func(i int)) int {
	// Structural parameters (never written).
	persist := m.persist
	resyncGap := m.resyncGap
	clipRun := m.clipRun
	half := m.half
	stepRatio := m.stepRatio
	shiftRatio := m.shiftRatio
	invStep := 1 / stepRatio   // loop-invariant band edges
	invShift := 1 / shiftRatio // +Inf while the shift band is disarmed; unread then
	burstK := m.burstK
	clipMinFrac := m.clipMinFrac
	refAlpha := m.refAlpha
	distinctAlpha := m.distinctAlpha
	obs := m.obs

	// The busy tracker's moving max, inlined: the per-sample step of the
	// dsp.MovingExtremum block kernel (max polarity), with the suffix
	// refill once every persist samples.
	sb := m.smax.Block()
	sCur, sSuf := sb.Cur, sb.Suf
	sPos, sPre := sb.Pos, sb.Pre
	sW := len(sCur)

	// Hot mutable state, written back after the run.
	samples := m.q.Samples
	stepPending := m.stepResyncPending
	pendingCause := m.pendingCause
	resyncCause := m.resyncCause
	lastGood := m.lastGood
	zeroRun := m.zeroRun
	runVal := m.runVal
	runLen := m.runLen
	clipActive := m.clipActive
	distinct := m.distinct
	prevX := m.prevX
	havePrev := m.havePrev
	ref := m.ref
	refReady := m.refReady
	warm := m.warm
	sinceHigh := m.sinceHigh
	stepDir := m.stepDir
	stepLen := m.stepLen
	sinceShiftHigh := m.sinceShiftHigh
	shiftDir := m.shiftDir
	shiftLen := m.shiftLen

	ii := i0
	for ii < len(xs) {
		x := xs[ii]
		samples++
		var fl qflag
		var retro int
		resync := false
		if stepPending {
			resync = true
			stepPending = false
			resyncCause = pendingCause
		}

		var y float64
		trackRaw := false // burst: the busy tracker sees the raw excursion
		discard := false  // NaN/gap: the tracker runs but its verdict is dropped
		if math.IsNaN(x) || math.IsInf(x, 0) {
			m.q.NaNSamples++
			runLen, zeroRun = 0, 0
			clipActive = false
			y = lastGood
			fl = qNaN
			discard = true
		} else if x == 0 {
			zeroRun++
			m.q.DroppedSamples++
			runLen = 0
			clipActive = false
			y = lastGood
			fl = qGap
			discard = true
		} else {
			if zeroRun >= resyncGap {
				resync = true
				resyncCause = trace.ResyncGap
				m.q.Resyncs++
			}
			zeroRun = 0

			if havePrev {
				d := 0.0
				if x != prevX {
					d = 1
				}
				distinct += distinctAlpha * (d - distinct)
			}
			prevX, havePrev = x, true

			if x == runVal {
				runLen++
			} else {
				runVal, runLen = x, 1
				clipActive = false
			}
			if refReady && distinct > 0.9 && runLen >= clipRun && x >= clipMinFrac*ref {
				fl |= qClip
				if !clipActive {
					retro = runLen - 1
					if retro > half-1 {
						retro = half - 1
					}
					m.q.ClippedSamples += int64(retro) + 1
					clipActive = true
				} else {
					m.q.ClippedSamples++
				}
			}

			if refReady && x > burstK*ref && fl == 0 {
				m.q.BurstSamples++
				y = lastGood
				fl = qBurst
				trackRaw = true
			} else {
				y = x
				lastGood = y
			}
		}

		// Busy-level tracker and gain-step detection: a sustained
		// departure of the short moving max from the busy reference in
		// either direction is a receiver gain discontinuity (dips never
		// move the max; the reference EMA absorbs slow drift).
		tx := y
		if trackRaw {
			tx = x
		}
		sCur[sPos] = tx
		if tx >= sPre {
			sPre = tx
		}
		sm := sPre
		if v := sSuf[sPos+1]; v > sm {
			sm = v
		}
		if sPos++; sPos == sW {
			m.smax.EndBlock()
			sPos, sPre = 0, math.Inf(-1)
		}
		stepped := false
		stepRetro := 0
		if !refReady {
			warm++
			if warm >= persist {
				ref = sm
				refReady = true
			}
		} else if ref <= 0 {
			ref = sm
		} else {
			if tx > stepRatio*ref {
				sinceHigh = 0
			} else if sinceHigh < 1<<30 {
				sinceHigh++
			}
			ratio := sm / ref
			dir := 0
			if ratio > stepRatio {
				dir = 1
			} else if ratio < invStep {
				dir = -1
			}
			sdir := 0
			if shiftRatio > 0 {
				if tx > shiftRatio*ref {
					sinceShiftHigh = 0
				} else if sinceShiftHigh < 1<<30 {
					sinceShiftHigh++
				}
				if ratio > shiftRatio {
					sdir = 1
				} else if ratio < invShift {
					sdir = -1
				}
			}
			if dir == 1 && sinceHigh > persist/2 {
				// Dead excursion the moving max is still holding.
				stepDir, stepLen = 0, 0
			} else {
				switch {
				case dir == 0:
					stepDir, stepLen = 0, 0
					if sdir == 0 {
						ref += refAlpha * (sm - ref)
					}
				case dir == stepDir:
					stepLen++
				default:
					stepDir, stepLen = dir, 1
				}
				if stepLen >= persist {
					m.q.Resyncs++
					stepRetro = half - 1
					if stepRetro < 0 {
						stepRetro = 0
					}
					m.q.StepSamples += int64(stepRetro) + 1
					ref = sm
					stepDir, stepLen = 0, 0
					shiftDir, shiftLen = 0, 0
					pendingCause = trace.ResyncGainStep
					stepped = true
				}
			}
			if !stepped && shiftRatio > 0 {
				// Probe-shift candidacy: the shift-band twin of the step
				// detector, which keeps priority.
				if sdir == 1 && sinceShiftHigh > persist/2 {
					shiftDir, shiftLen = 0, 0
				} else {
					switch {
					case sdir == 0:
						shiftDir, shiftLen = 0, 0
					case sdir == shiftDir:
						shiftLen++
					default:
						shiftDir, shiftLen = sdir, 1
					}
					if shiftLen >= persist {
						m.q.Resyncs++
						stepRetro = half - 1
						if stepRetro < 0 {
							stepRetro = 0
						}
						m.q.StepSamples += int64(stepRetro) + 1
						ref = sm
						shiftDir, shiftLen = 0, 0
						stepDir, stepLen = 0, 0
						pendingCause = trace.ResyncProbeShift
						stepped = true
					}
				}
			}
		}
		if stepped && !discard {
			stepPending = true
			fl |= qStep
			retro = stepRetro
		}

		if obs != nil {
			pos := samples - 1
			if resync {
				obs.Observe(trace.Record{Type: trace.TypeResync, Pos: pos, Cause: resyncCause})
			}
			if fl != 0 {
				obs.Observe(trace.Record{Type: trace.TypeQualityFlag, Pos: pos, Flags: fl, Retro: retro})
			}
		}

		san[ii] = y
		flags[ii] = fl
		if fl != 0 {
			for k := 1; k <= retro; k++ {
				if j := ii - k; j >= 0 {
					flags[j] |= fl
				} else if !patchOlder(k-ii, fl) {
					break
				}
			}
		}
		if resync {
			onResync(ii)
		}
		ii++
		if settled(stepPending, refReady, ref, zeroRun, havePrev) {
			break
		}
	}

	m.smax.SetBlock(sPos, sPre, ii-i0)
	m.q.Samples = samples
	m.stepResyncPending = stepPending
	m.pendingCause = pendingCause
	m.resyncCause = resyncCause
	m.lastGood = lastGood
	m.zeroRun = zeroRun
	m.runVal = runVal
	m.runLen = runLen
	m.clipActive = clipActive
	m.distinct = distinct
	m.prevX = prevX
	m.havePrev = havePrev
	m.ref = ref
	m.refReady = refReady
	m.warm = warm
	m.sinceHigh = sinceHigh
	m.stepDir = stepDir
	m.stepLen = stepLen
	m.sinceShiftHigh = sinceShiftHigh
	m.shiftDir = shiftDir
	m.shiftLen = shiftLen
	return ii
}
