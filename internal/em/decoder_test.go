package em

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// testCapture builds a deterministic capture for codec tests.
func testCapture(n int) *Capture {
	c := &Capture{SampleRate: 40e6, ClockHz: 1.008e9, Samples: make([]float64, n)}
	for i := range c.Samples {
		c.Samples[i] = 1 + 0.25*math.Sin(float64(i)*0.01) + 1e-6*float64(i%97)
	}
	return c
}

// TestDecoderChunkInvariance feeds the same raw sample stream through
// the decoder at every awkward chunking (1-byte, 7-byte, word-aligned,
// whole) and requires identical output each time.
func TestDecoderChunkInvariance(t *testing.T) {
	orig := testCapture(513)
	enc := make([]byte, 8*len(orig.Samples))
	for i, v := range orig.Samples {
		putFloat64(enc[i*8:], v)
	}
	for _, chunk := range []int{1, 3, 7, 8, 13, headerSize - 1, headerSize + 5, 1000, len(enc)} {
		d := NewRawDecoder()
		var got []float64
		for off := 0; off < len(enc); off += chunk {
			end := min(off+chunk, len(enc))
			if err := d.FeedBlock(enc[off:end], collect(&got)); err != nil {
				t.Fatalf("chunk=%d: %v", chunk, err)
			}
		}
		if d.Emitted() != int64(len(orig.Samples)) || len(d.State().Partial) != 0 {
			t.Fatalf("chunk=%d: emitted %d, %d-byte fragment pending", chunk, d.Emitted(), len(d.State().Partial))
		}
		if len(got) != len(orig.Samples) {
			t.Fatalf("chunk=%d: %d samples", chunk, len(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(orig.Samples[i]) {
				t.Fatalf("chunk=%d sample %d: %v != %v", chunk, i, got[i], orig.Samples[i])
			}
		}
	}
}

// collect returns a FeedBlock emit callback that appends every block to
// *out.
func collect(out *[]float64) func([]float64) {
	return func(xs []float64) { *out = append(*out, xs...) }
}

// TestRawDecoder checks the headerless float64 path, including words split
// across FeedBlock calls.
func TestRawDecoder(t *testing.T) {
	want := []float64{0, 1.5, -2.25, math.Pi, 1e-300}
	var enc []byte
	for _, v := range want {
		var b [8]byte
		putFloat64(b[:], v)
		enc = append(enc, b[:]...)
	}
	d := NewRawDecoder()
	var got []float64
	for _, b := range enc { // worst case: one byte at a time
		if err := d.FeedBlock([]byte{b}, collect(&got)); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.State(); len(st.Partial) != 0 || st.Emitted != int64(len(want)) {
		t.Fatalf("at a word boundary: state %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples", len(got))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
		}
	}
	// A dangling half-word stays pending, not emitted.
	if err := d.FeedBlock([]byte{1, 2, 3}, func([]float64) {}); err != nil {
		t.Fatal(err)
	}
	if st := d.State(); len(st.Partial) != 3 || st.Emitted != int64(len(want)) {
		t.Fatalf("with a partial word pending: state %+v", st)
	}
}

func putFloat64(b []byte, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

// TestDecoderTrailing checks that ReadCapture decodes exactly the
// declared sample count and ignores bytes beyond it.
func TestDecoderTrailing(t *testing.T) {
	orig := testCapture(4)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, orig); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 24))
	got, err := ReadCapture(iotest{r: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 4 || got.Samples[3] != orig.Samples[3] {
		t.Fatalf("decoded %d samples from a 4-sample capture with trailing bytes", len(got.Samples))
	}
}

// TestReadCaptureHostileHeaderCheap proves the allocation bomb is gone: a
// header declaring 2^34 samples followed by almost no data must fail
// after reading what is actually there, allocating nowhere near 128 GiB.
// (Before the bounded-chunk rewrite this call attempted
// make([]float64, 1<<34) up front.)
func TestReadCaptureHostileHeaderCheap(t *testing.T) {
	var buf bytes.Buffer
	hdr := testCapture(0)
	if err := WriteCapture(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Patch the declared count to the maximum the format admits.
	for i := 0; i < 8; i++ {
		enc[headerSize-8+i] = byte(uint64(MaxDeclaredSamples) >> (8 * i))
	}
	enc = append(enc, make([]byte, 80)...) // ten real samples, billions declared
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ReadCapture(bytes.NewReader(enc)); err == nil {
			t.Fatal("truncated hostile capture accepted")
		}
	})
	// Decoder + chunk buffer + a few appends; the old code's single
	// 128 GiB make() would abort the process, but keep a sanity bound.
	if allocs > 64 {
		t.Fatalf("hostile header cost %v allocations", allocs)
	}

	// One over the cap is rejected at header-parse time.
	for i := 0; i < 8; i++ {
		enc[headerSize-8+i] = byte(uint64(MaxDeclaredSamples+1) >> (8 * i))
	}
	if _, err := ReadCapture(bytes.NewReader(enc)); err == nil {
		t.Fatal("over-cap sample count accepted")
	}
}

// TestReadCaptureShortReads drives ReadCapture through a reader that
// returns one byte per Read call.
func TestReadCaptureShortReads(t *testing.T) {
	orig := testCapture(100)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(iotest{r: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 100 || got.Samples[50] != orig.Samples[50] {
		t.Fatal("short-read decode corrupted data")
	}
}

// iotest is a one-byte-at-a-time reader (avoids importing testing/iotest
// for one helper).
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// BenchmarkWriteCapture measures the block encoder; compare with
// BenchmarkWriteCaptureNaive (the seed's one-8-byte-write-per-sample
// loop) to see the win the block rewrite buys.
func BenchmarkWriteCapture(b *testing.B) {
	c := testCapture(1 << 20)
	b.SetBytes(int64(len(c.Samples) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteCapture(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteCaptureNaive reproduces the pre-rewrite encoder (bufio +
// one 8-byte Write per sample) as the baseline for BenchmarkWriteCapture.
func BenchmarkWriteCaptureNaive(b *testing.B) {
	c := testCapture(1 << 20)
	b.SetBytes(int64(len(c.Samples) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeCaptureNaive(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

func writeCaptureNaive(w io.Writer, c *Capture) error {
	var hdr [headerSize]byte
	copy(hdr[:], captureMagic)
	putFloat64(hdr[len(captureMagic):], c.SampleRate)
	putFloat64(hdr[len(captureMagic)+8:], c.ClockHz)
	putFloat64(hdr[len(captureMagic)+16:], 0)
	for i := 0; i < 8; i++ {
		hdr[len(captureMagic)+16+i] = byte(uint64(len(c.Samples)) >> (8 * i))
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range c.Samples {
		putFloat64(buf, v)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkReadCapture(b *testing.B) {
	c := testCapture(1 << 20)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, c); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCapture(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
