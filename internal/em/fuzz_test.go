package em

import (
	"bytes"
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
//   - the incremental Decoder fed the same bytes in arbitrary chunkings
//     must agree with ReadCapture exactly;
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

		// 2. Chunked Decoder agrees with ReadCapture.
		chunk := int(chunkSel%32) + 1
		d := NewStreamDecoder()
		var inc []float64
		var incErr error
		for off := 0; off < len(data) && incErr == nil; off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			incErr = d.FeedBlock(data[off:end], collect(&inc))
		}
		if err == nil {
			if incErr != nil {
				t.Fatalf("ReadCapture ok but Decoder failed: %v", incErr)
			}
			if len(inc) != len(c.Samples) {
				t.Fatalf("decoder emitted %d samples, ReadCapture %d", len(inc), len(c.Samples))
			}
			for i := range inc {
				if math.Float64bits(inc[i]) != math.Float64bits(c.Samples[i]) {
					t.Fatalf("sample %d: decoder %v, ReadCapture %v", i, inc[i], c.Samples[i])
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

// FuzzDecoderFeedBlock pins FeedBlock's chunk invariance: for any input
// bytes, either wire format and any chunking, it must emit exactly the
// sample sequence that 1-byte feeds emit, agree with them on every
// counter (Emitted, Trailing, Complete, Meta), and fail exactly when
// they fail. 1-byte feeds take the word-fragment path for every sample
// and the bulk path never, so the two decode each sample independently.
func FuzzDecoderFeedBlock(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(9), false)
	f.Add([]byte(captureMagic), uint8(3), uint8(1), false)
	var seed bytes.Buffer
	if err := WriteCapture(&seed, &Capture{
		Samples: []float64{1, 0.25, -3.5}, SampleRate: 40e6, ClockHz: 1e9,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(7), uint8(31), false)
	f.Add(seed.Bytes(), uint8(16), uint8(2), true)
	// Declared count smaller than the payload → trailing bytes.
	short := append([]byte(nil), seed.Bytes()...)
	short[headerSize-8] = 1
	f.Add(short, uint8(5), uint8(13), false)

	f.Fuzz(func(t *testing.T, data []byte, chunkA, chunkB uint8, raw bool) {
		feed := func(chunk int) (*Decoder, []float64, error) {
			d := NewStreamDecoder()
			if raw {
				d = NewRawDecoder()
			}
			var out []float64
			var err error
			for off := 0; off < len(data) && err == nil; off += chunk {
				end := min(off+chunk, len(data))
				err = d.FeedBlock(data[off:end], collect(&out))
			}
			return d, out, err
		}
		ref, refOut, refErr := feed(1)
		check := func(name string, chunk int) {
			d, out, err := feed(chunk)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: err=%v, 1-byte feeds err=%v", name, err, refErr)
			}
			if len(out) != len(refOut) {
				t.Fatalf("%s: emitted %d samples, 1-byte feeds %d", name, len(out), len(refOut))
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(refOut[i]) {
					t.Fatalf("%s: sample %d: %x, 1-byte feeds %x", name, i,
						math.Float64bits(out[i]), math.Float64bits(refOut[i]))
				}
			}
			if d.Emitted() != ref.Emitted() || d.Trailing() != ref.Trailing() ||
				d.Complete() != ref.Complete() || d.HeaderDone() != ref.HeaderDone() {
				t.Fatalf("%s: counters differ: emitted %d/%d trailing %d/%d complete %v/%v",
					name, d.Emitted(), ref.Emitted(), d.Trailing(), ref.Trailing(),
					d.Complete(), ref.Complete())
			}
			sr, ck, decl := d.Meta()
			rsr, rck, rdecl := ref.Meta()
			if math.Float64bits(sr) != math.Float64bits(rsr) ||
				math.Float64bits(ck) != math.Float64bits(rck) || decl != rdecl {
				t.Fatalf("%s: metadata differs", name)
			}
		}

		check("fuzzed-chunking", int(chunkA%64)+1)
		check("wide-chunking", int(chunkB)*64+1)
		check("one-shot", len(data)+1)
	})
}
