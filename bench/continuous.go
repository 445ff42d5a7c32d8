package main

import (
	"context"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"time"

	"emprof"
	"emprof/internal/core"
)

// continuousQuery is continuous profiling under load: two closed-loop
// streams upload whole sessions through the router, with rolling windows
// sealed into an on-disk store per shard, and read the windows back as
// they go. After every odd push a stream asks for the newest eight windows
// of its live session, as emprof top does; after every fourth, for an
// eight-window range of a finished session, served from disk; after every
// eighth, for a snapshot. The op is a whole session.
type continuousQuery struct {
	p   params
	dir string
	// uploads[s] is what every session of stream s uploads.
	uploads [2]*cqInput
	accPct  float64
	// plain drives the production fleet; traced, set up for traced runs
	// only, the fleet carrying the span wrappers.
	plain, traced *cqFleet
	// dropWindow removes one window of every timeline before it is merged,
	// once set-up is done (params.corrupt).
	dropWindow bool
}

// cqInput is a stream's upload: both captures back to back, starting from
// a different one in each stream, with its batch profile and the windows a
// session of it seals.
type cqInput struct {
	c    *emprof.Capture
	ref  *emprof.Profile
	wins []core.ProfileWindow
}

func newContinuousQuery(p params) bench { return &continuousQuery{p: p} }

func (q *continuousQuery) setup(tr *tracer) error {
	caps, err := simulateCaptures(tr, serviceJobs(q.p, 2))
	if err != nil {
		return err
	}
	q.accPct = capsAccuracy(caps)
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		return err
	}
	for s := range q.uploads {
		in := &cqInput{c: &emprof.Capture{SampleRate: caps[0].c.SampleRate, ClockHz: caps[0].c.ClockHz}}
		for i := range caps {
			in.c.Samples = append(in.c.Samples, caps[(i+s)%len(caps)].c.Samples...)
		}
		if in.ref, err = an.Run(context.Background(), in.c); err != nil {
			return err
		}
		if in.wins, err = referenceWindows(in.c, pushSamples); err != nil {
			return err
		}
		q.uploads[s] = in
	}
	if q.dir, err = os.MkdirTemp(q.p.tmpRoot, "continuous-"); err != nil {
		return err
	}
	if q.plain, err = q.bootFleet(nil, q.dir+"/plain"); err != nil {
		return err
	}
	if tr != nil {
		if q.traced, err = q.bootFleet(tr, q.dir+"/traced"); err != nil {
			return err
		}
	}
	q.dropWindow = q.p.corrupt
	return nil
}

// bootFleet boots a fleet with on-disk window stores under dir, its
// handlers wrapped in spans if tr is set, and warms it up with sessions
// from untraced clients; later range reads may pick them. The fleet is
// returned with any warm-up error, so that close stops it.
func (q *continuousQuery) bootFleet(tr *tracer, dir string) (*cqFleet, error) {
	f, err := startFleet(tr, windowS, dir, q.p.seed)
	if err != nil {
		return nil, err
	}
	cf := &cqFleet{f: f}
	for s := range cf.streams {
		cf.streams[s] = &cqStream{q: q, in: q.uploads[s], rng: rand.New(rand.NewPCG(q.p.seed, uint64(s)))}
	}
	pr := cf.phase(nil, func(round func(time.Time) *phaseResult) *phaseResult {
		return round(time.Now().Add(warmup(q.p)))
	})
	return cf, warm(pr)
}

// measure runs whole sessions in calibrated rounds, then checks every
// session it finished.
func (q *continuousQuery) measure(cal *calibrator, d time.Duration, tr *tracer) *phaseResult {
	cf := q.plain
	if tr != nil {
		cf = q.traced
	}
	return cf.phase(tr, func(round func(time.Time) *phaseResult) *phaseResult {
		return measureRounds(cal, d, round)
	})
}

// cqFleet is a fleet and the two streams that drive it. The streams'
// finished sessions outlive a phase, so range reads always have sessions
// to pick from.
type cqFleet struct {
	f       *localFleet
	streams [2]*cqStream
}

// phase gives each stream a client, runs the rounds, and checks the
// sessions the phase finished and the stores' health.
func (cf *cqFleet) phase(tr *tracer, run func(round func(time.Time) *phaseResult) *phaseResult) *phaseResult {
	for _, s := range cf.streams {
		s.cl = newCaller(cf.f, tr)
	}
	pr := run(cf.round)
	for _, s := range cf.streams {
		s.verify(pr)
		s.cl.close()
	}
	if n := cf.f.windowsDropped(); n > 0 {
		pr.fail("the window stores dropped %d windows", n)
	}
	return pr
}

// round runs whole sessions on both streams until the deadline; the
// sessions in flight at the deadline complete, so nothing is left
// analysing in the background.
func (cf *cqFleet) round(deadline time.Time) *phaseResult {
	pr := newPhase()
	var wg sync.WaitGroup
	for _, s := range cf.streams {
		s.res = newPhase()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s.res.ops == 0 || time.Now().Before(deadline) {
				s.session()
			}
		}()
	}
	wg.Wait()
	for _, s := range cf.streams {
		pr.merge(s.res)
	}
	return pr
}

// cqStream is one closed-loop stream.
type cqStream struct {
	q   *continuousQuery
	in  *cqInput
	cl  *caller
	rng *rand.Rand
	// res collects the current round.
	res *phaseResult
	// done lists the finished sessions; the first checked of them have had
	// their timelines verified.
	done    []string
	checked int
}

// session uploads the stream's input once, querying as it goes, and
// finalizes it. The session is timed from create to the finalized profile;
// the window checks inside it take microseconds.
func (s *cqStream) session() {
	t0 := time.Now()
	xs := s.in.c.Samples
	id, d, err := s.cl.create(s.in.c)
	s.res.ops++
	s.res.record("create", d)
	if err != nil {
		s.res.fail("create: %s", errString(err))
		return
	}
	for off, k := 0, 1; off < len(xs); off, k = off+pushSamples, k+1 {
		end := min(off+pushSamples, len(xs))
		d, err := s.cl.push(id, int64(off), xs[off:end])
		s.res.ops++
		s.res.record("push", d)
		if err != nil {
			s.res.fail("push: %s", errString(err))
			return
		}
		s.res.units += float64(end - off)
		wins := s.in.wins
		switch {
		case end == len(xs):
		case k%2 == 1:
			s.query("tail_query", id, emprof.ProfilesRequest{Last: 8}, -1, 8)
		case k%4 == 2 && len(s.done) > 0 && len(wins) > 1:
			// A range never returns the stream's final window, which the
			// flush can leave empty, so ranges stop short of it.
			n := min(8, len(wins)-1)
			i := s.rng.IntN(len(wins) - n)
			req := emprof.ProfilesRequest{From: wins[i].StartS, To: wins[i+n-1].EndS}
			s.query("range_query", s.done[s.rng.IntN(len(s.done))], req, int64(i), n)
		case k%8 == 0:
			d, err := s.cl.snapshot(id, int64(end))
			s.res.ops++
			s.res.record("snapshot", d)
			if err != nil {
				s.res.fail("snapshot: %s", errString(err))
			}
		}
	}
	prof, d, err := s.cl.finalize(id)
	s.res.ops++
	s.res.record("finalize", d)
	s.res.record("session", time.Since(t0))
	switch {
	case err != nil:
		s.res.fail("finalize: %s", errString(err))
	case !reflect.DeepEqual(prof, s.in.ref):
		s.res.fail("finalized profile differs from the batch reference")
	default:
		s.done = append(s.done, id)
	}
}

// query reads windows of a session and checks them against the reference
// windows: a tail (first < 0) may return up to n, a range exactly the n
// from index first.
func (s *cqStream) query(kind, id string, req emprof.ProfilesRequest, first int64, n int) {
	resp, d, err := s.cl.profiles(id, req)
	s.res.ops++
	s.res.record(kind, d)
	if err != nil {
		s.res.fail("profiles: %s", errString(err))
		return
	}
	got := resp.Windows
	switch {
	case len(got) > n || (first >= 0 && (len(got) != n || got[0].Index != first)):
		s.res.fail("profiles %+v: got %d windows", req, len(got))
	case !matchWindows(got, s.in.wins):
		s.res.fail("profiles %+v: windows differ from the reference windows", req)
	}
}

// verify walks the timeline of each session finished since the last call,
// with cursor paging; merged, it must equal the batch profile.
func (s *cqStream) verify(pr *phaseResult) {
	c := s.in.c
	for _, id := range s.done[s.checked:] {
		ws, err := s.cl.timeline(id)
		if err == nil && s.q.dropWindow && len(ws) > 2 {
			mid := len(ws) / 2
			ws = append(ws[:mid], ws[mid+1:]...)
		}
		var merged *core.Profile
		if err == nil {
			merged, err = core.MergeWindows(ws, c.SampleRate, c.ClockHz)
		}
		pr.ops++
		if err != nil || !reflect.DeepEqual(merged, s.in.ref) {
			pr.fail("session %s: merged timeline differs from the batch reference (%v)", id, err)
		}
	}
	s.checked = len(s.done)
}

func (q *continuousQuery) inputs() []*emprof.Capture {
	return []*emprof.Capture{q.uploads[0].c}
}

func (q *continuousQuery) accuracyPct() float64 { return q.accPct }

// ledger is per sample: decode, the block analyzer, the windows sealed and
// appended per sample, and the windows queries read back per sample (up to
// eight every other push, and eight more every fourth). The residual is
// the client, HTTP, the router, the drains queries wait on, copies and the
// GC.
func (q *continuousQuery) ledger(l layerCosts) []ledgerRow {
	sealed := 1 / (windowS * q.uploads[0].c.SampleRate)
	read := 3.0 / pushSamples
	return []ledgerRow{
		{"em.decode", l["em.decode_ns_per_sample"]},
		{"core.push_block", l["core.push_block_ns_per_sample"]},
		{"core.windower", l["core.windower_ns_per_window"] * sealed},
		{"profstore.append", l["profstore.append_us_per_window"] * 1e3 * sealed},
		{"profstore.query", l["profstore.query_us_per_window"] * 1e3 * read},
	}
}

func (q *continuousQuery) close() {
	for _, cf := range []*cqFleet{q.plain, q.traced} {
		if cf != nil {
			cf.f.close()
		}
	}
	if q.dir != "" {
		os.RemoveAll(q.dir)
	}
}
