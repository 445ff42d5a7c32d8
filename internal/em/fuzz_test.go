package em

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzReadCapture exercises the capture codec with arbitrary bytes and
// with genuine round-trips. Invariants:
//
//   - ReadCapture must never panic, whatever the input;
//   - it must never allocate samples beyond what the input bytes can
//     actually encode (the pre-rewrite reader trusted the header's count
//     up to 2^34 — a 128 GiB allocation from a 34-byte input);
//   - reads of any size must decode exactly as one whole read does;
//   - a capture synthesised from the fuzz input must round-trip through
//     WriteCapture → ReadCapture bit-identically.
func FuzzReadCapture(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte(captureMagic), uint8(3))
	// A well-formed two-sample capture.
	var seed bytes.Buffer
	if err := WriteCapture(&seed, &Capture{
		Samples: []float64{1, 0.25}, SampleRate: 40e6, ClockHz: 1e9,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(7))
	// A hostile header: valid magic/metadata, maximum declared count.
	hostile := append([]byte(nil), seed.Bytes()[:headerSize]...)
	for i := 0; i < 8; i++ {
		hostile[headerSize-8+i] = byte(uint64(MaxDeclaredSamples) >> (8 * i))
	}
	f.Add(hostile, uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, chunkSel uint8) {
		// 1. Arbitrary bytes: no panic, bounded allocation.
		c, err := ReadCapture(bytes.NewReader(data))
		if err == nil {
			max := (len(data) - headerSize) / 8
			if max < 0 {
				max = 0
			}
			if len(c.Samples) > max {
				t.Fatalf("decoded %d samples from %d input bytes", len(c.Samples), len(data))
			}
		}

		// 2. Short reads of any size decode the same as one whole read.
		chunked, cerr := ReadCapture(&chunkReader{data: data, n: int(chunkSel%32) + 1})
		if (cerr == nil) != (err == nil) {
			t.Fatalf("chunked reads err=%v, whole input err=%v", cerr, err)
		}
		if err == nil {
			if chunked.SampleRate != c.SampleRate || chunked.ClockHz != c.ClockHz || len(chunked.Samples) != len(c.Samples) {
				t.Fatalf("chunked reads: %d samples %v/%v, whole input %d samples %v/%v",
					len(chunked.Samples), chunked.SampleRate, chunked.ClockHz, len(c.Samples), c.SampleRate, c.ClockHz)
			}
			for i := range c.Samples {
				if math.Float64bits(chunked.Samples[i]) != math.Float64bits(c.Samples[i]) {
					t.Fatalf("sample %d: chunked reads %v, whole input %v", i, chunked.Samples[i], c.Samples[i])
				}
			}
		}

		// 3. Round-trip a capture synthesised from the input bytes.
		n := len(data) / 8
		if n > 4096 {
			n = 4096
		}
		rt := &Capture{SampleRate: 40e6, ClockHz: 1e9, Samples: make([]float64, n)}
		for i := range rt.Samples {
			bits := uint64(0)
			for j := 0; j < 8; j++ {
				bits |= uint64(data[i*8+j]) << (8 * j)
			}
			rt.Samples[i] = math.Float64frombits(bits)
		}
		var buf bytes.Buffer
		if err := WriteCapture(&buf, rt); err != nil {
			t.Fatalf("WriteCapture: %v", err)
		}
		got, err := ReadCapture(&buf)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if len(got.Samples) != n || got.SampleRate != rt.SampleRate || got.ClockHz != rt.ClockHz {
			t.Fatalf("round-trip shape: %d samples %v/%v", len(got.Samples), got.SampleRate, got.ClockHz)
		}
		for i := range got.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(rt.Samples[i]) {
				t.Fatalf("round-trip sample %d: %x != %x", i,
					math.Float64bits(got.Samples[i]), math.Float64bits(rt.Samples[i]))
			}
		}
	})
}

// chunkReader returns its data n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// FuzzDecoderFeedBlock pins FeedBlock's chunk invariance: for any input
// bytes and any chunking, it must emit exactly the sample sequence that
// 1-byte feeds emit and agree with them on Emitted. 1-byte feeds take
// the word-fragment path for every sample and the bulk path never, so
// the two decode each sample independently. A decoder rebuilt from its
// State at a fuzzed byte — a session hand-off mid-word — must continue
// the stream identically.
func FuzzDecoderFeedBlock(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(9), uint16(0))
	f.Add([]byte{1, 2, 3}, uint8(3), uint8(1), uint16(2))
	f.Add(rawWords(1, 0.25, -3.5), uint8(7), uint8(31), uint16(13))
	f.Add(rawWords(1, 0.25, -3.5), uint8(16), uint8(2), uint16(24))
	f.Add(append(rawWords(math.Pi, 1e-300), 9, 9, 9), uint8(5), uint8(13), uint16(11))

	f.Fuzz(func(t *testing.T, data []byte, chunkA, chunkB uint8, cut uint16) {
		feed := func(d *Decoder, data []byte, chunk int, out *[]float64) {
			for off := 0; off < len(data); off += chunk {
				if err := d.FeedBlock(data[off:min(off+chunk, len(data))], collect(out)); err != nil {
					t.Fatalf("FeedBlock: %v", err)
				}
			}
		}
		ref, refOut := NewRawDecoder(), []float64(nil)
		feed(ref, data, 1, &refOut)
		check := func(name string, d *Decoder, out []float64) {
			if len(out) != len(refOut) || d.Emitted() != ref.Emitted() {
				t.Fatalf("%s: emitted %d samples (counter %d), 1-byte feeds %d (counter %d)",
					name, len(out), d.Emitted(), len(refOut), ref.Emitted())
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(refOut[i]) {
					t.Fatalf("%s: sample %d: %x, 1-byte feeds %x", name, i,
						math.Float64bits(out[i]), math.Float64bits(refOut[i]))
				}
			}
		}
		for _, c := range []struct {
			name  string
			chunk int
		}{{"fuzzed-chunking", int(chunkA%64) + 1}, {"wide-chunking", int(chunkB)*64 + 1}, {"one-shot", len(data) + 1}} {
			d, out := NewRawDecoder(), []float64(nil)
			feed(d, data, c.chunk, &out)
			check(c.name, d, out)
		}

		// Hand-off: snapshot at byte k, restore, feed the rest.
		k := int(cut) % (len(data) + 1)
		a, out := NewRawDecoder(), []float64(nil)
		feed(a, data[:k], int(chunkA%64)+1, &out)
		b, err := RestoreDecoder(a.State())
		if err != nil {
			t.Fatalf("restore at byte %d: %v", k, err)
		}
		feed(b, data[k:], int(chunkA%64)+1, &out)
		check("restored", b, out)
	})
}

// rawWords encodes xs as a raw little-endian float64 stream.
func rawWords(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		putFloat64(b[i*8:], x)
	}
	return b
}
