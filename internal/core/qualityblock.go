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
func (s *monitorState) settled() bool {
	return !s.StepResyncPending && s.RefReady && s.Ref > 0 && s.ZeroRun == 0 && s.HavePrev
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
// The loop carries about a dozen values in registers and writes them
// back to m once per run; the general step, which takes the few samples
// left, reads and writes its state through m instead.
func (m *monitor) settledRun(xs, san []float64, flags []qflag) int {
	if !m.settled() {
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

	ref := m.Ref
	distinct, prevX := m.Distinct, m.PrevX
	runVal, runLen, clipActive := m.RunVal, m.RunLen, m.ClipActive
	sinceHigh, sinceShiftHigh := m.SinceHigh, m.SinceShiftHigh
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
	m.Quality.Samples += int64(i)
	m.Ref = ref
	m.Distinct, m.PrevX, m.LastGood = distinct, prevX, prevX
	m.RunVal, m.RunLen, m.ClipActive = runVal, runLen, clipActive
	m.SinceHigh, m.SinceShiftHigh = sinceHigh, sinceShiftHigh
	m.StepDir, m.StepLen = 0, 0
	if m.shiftRatio > 0 {
		m.ShiftDir, m.ShiftLen = 0, 0
	}
	return i
}

// generalRun is the general step: the whole per-sample monitor, reading
// and writing its state through m. It processes xs[i0] and the samples
// after it until the monitor is settled again (or the block ends), and
// returns the index of the next unprocessed sample. It takes 1–2 % of a
// capture's samples, so it keeps only the busy tracker's block cursor in
// locals. The nil-observer path pays one predictable branch per sample.
func (m *monitor) generalRun(xs, san []float64, flags []qflag, i0 int, patchOlder func(back int, f qflag) bool, onResync func(i int)) int {
	q := &m.Quality
	invStep := 1 / m.stepRatio   // loop-invariant band edges
	invShift := 1 / m.shiftRatio // +Inf while the shift band is disarmed; unread then

	// The busy tracker's moving max, inlined: the per-sample step of the
	// dsp.MovingExtremum block kernel (max polarity), with the suffix
	// refill once every persist samples.
	sb := m.smax.Block()
	sCur, sSuf := sb.Cur, sb.Suf
	sPos, sPre := sb.Pos, sb.Pre
	sW := len(sCur)

	ii := i0
	for ii < len(xs) {
		x := xs[ii]
		q.Samples++
		var fl qflag
		var retro int
		var resyncCause trace.ResyncCause
		resync := false
		if m.StepResyncPending {
			resync = true
			m.StepResyncPending = false
			resyncCause = m.PendingCause
		}

		var y float64
		trackRaw := false // burst: the busy tracker sees the raw excursion
		discard := false  // NaN/gap: the tracker runs but its verdict is dropped
		if math.IsNaN(x) || math.IsInf(x, 0) {
			q.NaNSamples++
			m.RunLen, m.ZeroRun = 0, 0
			m.ClipActive = false
			y = m.LastGood
			fl = qNaN
			discard = true
		} else if x == 0 {
			m.ZeroRun++
			q.DroppedSamples++
			m.RunLen = 0
			m.ClipActive = false
			y = m.LastGood
			fl = qGap
			discard = true
		} else {
			if m.ZeroRun >= m.resyncGap {
				resync = true
				resyncCause = trace.ResyncGap
				q.Resyncs++
			}
			m.ZeroRun = 0

			if m.HavePrev {
				d := 0.0
				if x != m.PrevX {
					d = 1
				}
				m.Distinct += m.distinctAlpha * (d - m.Distinct)
			}
			m.PrevX, m.HavePrev = x, true

			if x == m.RunVal {
				m.RunLen++
			} else {
				m.RunVal, m.RunLen = x, 1
				m.ClipActive = false
			}
			if m.RefReady && m.Distinct > 0.9 && m.RunLen >= m.clipRun && x >= m.clipMinFrac*m.Ref {
				fl |= qClip
				if !m.ClipActive {
					retro = min(m.RunLen-1, m.half-1)
					q.ClippedSamples += int64(retro) + 1
					m.ClipActive = true
				} else {
					q.ClippedSamples++
				}
			}

			if m.RefReady && x > m.burstK*m.Ref && fl == 0 {
				q.BurstSamples++
				y = m.LastGood
				fl = qBurst
				trackRaw = true
			} else {
				y = x
				m.LastGood = y
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
		if !m.RefReady {
			m.Warm++
			if m.Warm >= m.persist {
				m.Ref = sm
				m.RefReady = true
			}
		} else if m.Ref <= 0 {
			m.Ref = sm
		} else {
			if tx > m.stepRatio*m.Ref {
				m.SinceHigh = 0
			} else if m.SinceHigh < 1<<30 {
				m.SinceHigh++
			}
			ratio := sm / m.Ref
			dir := 0
			if ratio > m.stepRatio {
				dir = 1
			} else if ratio < invStep {
				dir = -1
			}
			sdir := 0
			if m.shiftRatio > 0 {
				if tx > m.shiftRatio*m.Ref {
					m.SinceShiftHigh = 0
				} else if m.SinceShiftHigh < 1<<30 {
					m.SinceShiftHigh++
				}
				if ratio > m.shiftRatio {
					sdir = 1
				} else if ratio < invShift {
					sdir = -1
				}
			}
			if dir == 1 && m.SinceHigh > m.persist/2 {
				// Dead excursion the moving max is still holding.
				m.StepDir, m.StepLen = 0, 0
			} else {
				switch {
				case dir == 0:
					m.StepDir, m.StepLen = 0, 0
					if sdir == 0 {
						m.Ref += m.refAlpha * (sm - m.Ref)
					}
				case dir == m.StepDir:
					m.StepLen++
				default:
					m.StepDir, m.StepLen = dir, 1
				}
				if m.StepLen >= m.persist {
					q.Resyncs++
					stepRetro = max(m.half-1, 0)
					q.StepSamples += int64(stepRetro) + 1
					m.Ref = sm
					m.StepDir, m.StepLen = 0, 0
					m.ShiftDir, m.ShiftLen = 0, 0
					m.PendingCause = trace.ResyncGainStep
					stepped = true
				}
			}
			if !stepped && m.shiftRatio > 0 {
				// Probe-shift candidacy: the shift-band twin of the step
				// detector, which keeps priority.
				if sdir == 1 && m.SinceShiftHigh > m.persist/2 {
					m.ShiftDir, m.ShiftLen = 0, 0
				} else {
					switch {
					case sdir == 0:
						m.ShiftDir, m.ShiftLen = 0, 0
					case sdir == m.ShiftDir:
						m.ShiftLen++
					default:
						m.ShiftDir, m.ShiftLen = sdir, 1
					}
					if m.ShiftLen >= m.persist {
						q.Resyncs++
						stepRetro = max(m.half-1, 0)
						q.StepSamples += int64(stepRetro) + 1
						m.Ref = sm
						m.ShiftDir, m.ShiftLen = 0, 0
						m.StepDir, m.StepLen = 0, 0
						m.PendingCause = trace.ResyncProbeShift
						stepped = true
					}
				}
			}
		}
		if stepped && !discard {
			m.StepResyncPending = true
			fl |= qStep
			retro = stepRetro
		}

		if m.obs != nil {
			pos := q.Samples - 1
			if resync {
				m.obs.Observe(trace.Record{Type: trace.TypeResync, Pos: pos, Cause: resyncCause})
			}
			if fl != 0 {
				m.obs.Observe(trace.Record{Type: trace.TypeQualityFlag, Pos: pos, Flags: fl, Retro: retro})
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
		if m.settled() {
			break
		}
	}

	m.smax.SetBlock(sPos, sPre, ii-i0)
	return ii
}
