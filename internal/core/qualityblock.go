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
// The monitor's hot state is hoisted into locals for the duration of the
// block, removing the per-sample field loads, store-backs and call
// overhead that dominated the monitor when it ran one sample per call.
// The readable per-sample form of the same monitor is the test oracle
// (oracle_test.go), which compares the two sample for sample, including
// the full quality record and every piece of exported state.
//
// An attached trace observer receives one Resync event per re-seed and
// one QualityFlag event per flagged sample, in sample order; the
// nil-observer fast path pays one predictable branch per sample.
func (m *monitor) processBlock(xs, san []float64, flags []qflag, patchOlder func(back int, f qflag) bool, onResync func(i int)) {
	// Structural parameters (never written).
	persist := m.persist
	resyncGap := m.resyncGap
	clipRun := m.clipRun
	half := m.half
	stepRatio := m.stepRatio
	shiftRatio := m.shiftRatio
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

	// Hot mutable state, written back after the block.
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

	for ii, x := range xs {
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
			} else if ratio < 1/stepRatio {
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
				} else if ratio < 1/shiftRatio {
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
				obs.Resync(trace.Resync{Pos: pos, Cause: resyncCause})
			}
			if fl != 0 {
				obs.QualityFlag(trace.QualityFlag{Pos: pos, Flags: fl, Retro: retro})
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
	}

	m.smax.SetBlock(sPos, sPre, len(xs))
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
}
