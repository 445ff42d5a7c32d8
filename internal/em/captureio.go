package em

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// captureMagic identifies the capture file format: a fixed header followed
// by little-endian float64 samples.
const captureMagic = "EMPROFCAP1"

// headerSize is the full EMPROFCAP header: magic, sample rate, clock
// frequency, declared sample count.
const headerSize = len(captureMagic) + 8 + 8 + 8

// MaxDeclaredSamples bounds the sample count a capture header may declare
// (2^34 samples = 128 GiB of float64s). Headers above it are rejected;
// below it, readers still allocate incrementally, so a hostile header
// never costs more memory than the bytes actually supplied.
const MaxDeclaredSamples = 1 << 34

// writeBlockSamples sizes WriteCapture's encode buffer: 8 KiSamples =
// 64 KiB per Write call, large enough that syscall and copy overhead
// amortise away.
const writeBlockSamples = 8192

// WriteCapture serialises a capture. Samples are encoded in 64 KiB blocks
// rather than one 8-byte write each, which keeps the per-sample cost to a
// single PutUint64 and amortised copy.
func WriteCapture(w io.Writer, c *Capture) error {
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, captureMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(c.SampleRate))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(c.ClockHz))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(int64(len(c.Samples))))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, writeBlockSamples*8)
	for off := 0; off < len(c.Samples); off += writeBlockSamples {
		end := off + writeBlockSamples
		if end > len(c.Samples) {
			end = len(c.Samples)
		}
		block := c.Samples[off:end]
		for i, v := range block {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:len(block)*8]); err != nil {
			return err
		}
	}
	return nil
}

// Decoder incrementally decodes a stream of capture bytes, in bounded
// memory, regardless of how the stream is chunked: bytes may arrive one
// at a time or in megabyte blocks, across any number of FeedBlock
// calls, with words and the header split anywhere. It backs both
// ReadCapture and the profiling service's streaming ingest, where
// captures arrive over the network and must never be buffered whole.
//
// Two wire formats are supported:
//
//   - EMPROFCAP (NewStreamDecoder): the WriteCapture format — magic,
//     sample-rate and clock metadata, a declared sample count, then the
//     samples. The declared count is validated against
//     MaxDeclaredSamples but never pre-allocated.
//   - raw (NewRawDecoder): a headerless stream of little-endian float64
//     words, for callers that established the acquisition metadata out of
//     band (the service's session-create call).
type Decoder struct {
	raw bool

	// Header accumulation (EMPROFCAP only).
	hdr     []byte
	hdrDone bool

	sampleRate float64
	clockHz    float64
	declared   int64

	// Word reassembly across FeedBlock boundaries.
	partial [8]byte
	np      int

	emitted  int64
	trailing int64
	err      error
}

// NewStreamDecoder returns a decoder for the EMPROFCAP format (header +
// samples).
func NewStreamDecoder() *Decoder {
	return &Decoder{hdr: make([]byte, 0, headerSize)}
}

// NewRawDecoder returns a decoder for a headerless little-endian float64
// stream.
func NewRawDecoder() *Decoder { return &Decoder{raw: true, hdrDone: true} }

// decodeBlockSamples sizes FeedBlock's decode scratch: 8 KiSamples =
// 64 KiB per emit, matching the service's ingest chunk so one network
// read usually becomes one emit.
const decodeBlockSamples = 8192

// decodeBlockPool recycles FeedBlock scratch blocks across calls and
// decoders, so steady-state block decoding allocates nothing.
var decodeBlockPool = sync.Pool{
	New: func() any { b := make([]float64, decodeBlockSamples); return &b },
}

// FeedBlock consumes the next chunk of the stream, handing completed
// samples to emit, in order, in batches decoded into a pooled scratch
// block: aligned whole words are decoded in bulk; only the header and
// word fragments spanning chunk boundaries take the byte-at-a-time
// path (those emit a one-sample block). The sequence of samples emitted
// is the same for any chunking of the stream. It returns a non-nil
// error on malformed input (bad magic, implausible metadata); once an
// error is returned the decoder is poisoned and every later FeedBlock
// returns the same error.
//
// The slice passed to emit is only valid for the duration of the call
// and is reused afterwards — emit must consume it (e.g. feed it to
// StreamAnalyzer.PushBlock, which retains nothing) rather than keep it.
func (d *Decoder) FeedBlock(p []byte, emit func([]float64)) error {
	if d.err != nil {
		return d.err
	}
	if !d.hdrDone {
		need := headerSize - len(d.hdr)
		if need > len(p) {
			need = len(p)
		}
		d.hdr = append(d.hdr, p[:need]...)
		p = p[need:]
		if len(d.hdr) < headerSize {
			return nil
		}
		if err := d.parseHeader(); err != nil {
			d.err = err
			return err
		}
		d.hdrDone = true
	}
	var bp *[]float64
	var block []float64
	for len(p) > 0 {
		if !d.raw && d.emitted == d.declared {
			// The declared sample count has been satisfied; anything
			// further is trailing data the caller may treat as an error
			// (Trailing) — ReadCapture ignores it.
			d.trailing += int64(len(p))
			break
		}
		if d.np > 0 || len(p) < 8 {
			n := copy(d.partial[d.np:], p)
			d.np += n
			p = p[n:]
			if d.np < 8 {
				break
			}
			d.np = 0
			d.emitted++
			if bp == nil {
				bp = decodeBlockPool.Get().(*[]float64)
				block = *bp
			}
			block[0] = math.Float64frombits(binary.LittleEndian.Uint64(d.partial[:]))
			emit(block[:1])
			continue
		}
		words := len(p) / 8
		if !d.raw {
			if rem := d.declared - d.emitted; int64(words) > rem {
				words = int(rem)
			}
		}
		if bp == nil {
			bp = decodeBlockPool.Get().(*[]float64)
			block = *bp
		}
		for words > 0 {
			run := words
			if run > decodeBlockSamples {
				run = decodeBlockSamples
			}
			for i := 0; i < run; i++ {
				block[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
			}
			d.emitted += int64(run)
			p = p[run*8:]
			words -= run
			emit(block[:run])
		}
	}
	if bp != nil {
		decodeBlockPool.Put(bp)
	}
	return nil
}

// parseHeader validates the accumulated EMPROFCAP header.
func (d *Decoder) parseHeader() error {
	if string(d.hdr[:len(captureMagic)]) != captureMagic {
		return fmt.Errorf("em: not a capture file (magic %q)", d.hdr[:len(captureMagic)])
	}
	off := len(captureMagic)
	d.sampleRate = math.Float64frombits(binary.LittleEndian.Uint64(d.hdr[off:]))
	d.clockHz = math.Float64frombits(binary.LittleEndian.Uint64(d.hdr[off+8:]))
	d.declared = int64(binary.LittleEndian.Uint64(d.hdr[off+16:]))
	if d.declared < 0 || d.declared > MaxDeclaredSamples {
		return fmt.Errorf("em: implausible sample count %d", d.declared)
	}
	if !(d.sampleRate > 0) || !(d.clockHz > 0) ||
		math.IsInf(d.sampleRate, 0) || math.IsInf(d.clockHz, 0) {
		return fmt.Errorf("em: invalid capture metadata rate=%v clock=%v", d.sampleRate, d.clockHz)
	}
	return nil
}

// DropFragment discards a half-assembled word left by an interrupted
// FeedBlock. The profiling service calls it before replay-skipping a
// retried push body: the retry resends the fragmented sample whole, so
// the stale prefix bytes must not be prepended to the resent ones.
func (d *Decoder) DropFragment() { d.np = 0 }

// HeaderDone reports whether the metadata is available (always true for a
// raw decoder).
func (d *Decoder) HeaderDone() bool { return d.hdrDone }

// Meta returns the decoded acquisition metadata and declared sample count;
// valid once HeaderDone. Raw decoders report zeros.
func (d *Decoder) Meta() (sampleRate, clockHz float64, declared int64) {
	return d.sampleRate, d.clockHz, d.declared
}

// Emitted returns the number of samples decoded so far.
func (d *Decoder) Emitted() int64 { return d.emitted }

// Complete reports whether the stream forms a whole capture: header
// parsed, declared count reached, no word fragment pending. Raw streams
// are complete at any word boundary.
func (d *Decoder) Complete() bool {
	if d.err != nil || !d.hdrDone || d.np != 0 {
		return false
	}
	return d.raw || d.emitted == d.declared
}

// Trailing returns the number of bytes received beyond the declared
// sample count.
func (d *Decoder) Trailing() int64 { return d.trailing }

// DecoderState is a serializable snapshot of a Decoder mid-stream, part
// of the profiling service's session hand-off wire format: the receiving
// shard must resume word reassembly at the exact byte the old owner
// stopped at, or a float64 split across the hand-off boundary would be
// decoded wrong (or twice). A poisoned decoder has no state — sessions
// that failed to decode are not handed off.
type DecoderState struct {
	Raw        bool    `json:"raw"`
	Hdr        []byte  `json:"hdr,omitempty"`
	HdrDone    bool    `json:"hdr_done"`
	SampleRate float64 `json:"sample_rate,omitempty"`
	ClockHz    float64 `json:"clock_hz,omitempty"`
	Declared   int64   `json:"declared,omitempty"`
	Partial    []byte  `json:"partial,omitempty"`
	Emitted    int64   `json:"emitted"`
	Trailing   int64   `json:"trailing,omitempty"`
}

// State snapshots the decoder. It must not be called on a poisoned
// decoder (one whose FeedBlock has returned an error).
func (d *Decoder) State() (DecoderState, error) {
	if d.err != nil {
		return DecoderState{}, fmt.Errorf("em: cannot snapshot poisoned decoder: %w", d.err)
	}
	return DecoderState{
		Raw:        d.raw,
		Hdr:        append([]byte(nil), d.hdr...),
		HdrDone:    d.hdrDone,
		SampleRate: d.sampleRate,
		ClockHz:    d.clockHz,
		Declared:   d.declared,
		Partial:    append([]byte(nil), d.partial[:d.np]...),
		Emitted:    d.emitted,
		Trailing:   d.trailing,
	}, nil
}

// RestoreDecoder rebuilds a decoder from a snapshot; feeding the
// remaining stream bytes continues bit-identically to the exporting
// instance.
func RestoreDecoder(st DecoderState) (*Decoder, error) {
	if len(st.Partial) >= 8 {
		return nil, fmt.Errorf("em: decoder state with %d-byte word fragment", len(st.Partial))
	}
	if st.Emitted < 0 || st.Trailing < 0 {
		return nil, fmt.Errorf("em: decoder state with negative counters")
	}
	if !st.Raw {
		if len(st.Hdr) > headerSize {
			return nil, fmt.Errorf("em: decoder state header overflows (%d bytes)", len(st.Hdr))
		}
		if st.HdrDone && len(st.Hdr) != headerSize {
			return nil, fmt.Errorf("em: decoder state header incomplete (%d bytes)", len(st.Hdr))
		}
		if st.Declared < 0 || st.Declared > MaxDeclaredSamples {
			return nil, fmt.Errorf("em: implausible sample count %d", st.Declared)
		}
		if st.HdrDone && st.Emitted > st.Declared {
			return nil, fmt.Errorf("em: decoder state emitted %d beyond declared %d", st.Emitted, st.Declared)
		}
	}
	d := &Decoder{
		raw:        st.Raw,
		hdr:        make([]byte, 0, headerSize),
		hdrDone:    st.HdrDone,
		sampleRate: st.SampleRate,
		clockHz:    st.ClockHz,
		declared:   st.Declared,
		emitted:    st.Emitted,
		trailing:   st.Trailing,
	}
	d.hdr = append(d.hdr, st.Hdr...)
	d.np = copy(d.partial[:], st.Partial)
	return d, nil
}

// readChunk sizes ReadCapture's transfer buffer (64 KiB).
const readChunk = 64 * 1024

// ReadCapture deserialises a capture written by WriteCapture. It reads in
// bounded chunks and grows the sample slice as data actually arrives, so
// a truncated or hostile header that declares billions of samples fails
// after a 64 KiB read, not a 128 GiB allocation.
func ReadCapture(r io.Reader) (*Capture, error) {
	d := NewStreamDecoder()
	var c Capture
	buf := make([]byte, readChunk)
	for !d.Complete() {
		n, err := r.Read(buf)
		if n > 0 {
			if ferr := d.FeedBlock(buf[:n], func(xs []float64) { c.Samples = append(c.Samples, xs...) }); ferr != nil {
				return nil, ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if !d.HeaderDone() {
		if len(d.hdr) >= len(captureMagic) && string(d.hdr[:len(captureMagic)]) != captureMagic {
			return nil, fmt.Errorf("em: not a capture file (magic %q)", d.hdr[:len(captureMagic)])
		}
		return nil, fmt.Errorf("em: reading capture header: %w", io.ErrUnexpectedEOF)
	}
	if !d.Complete() {
		return nil, fmt.Errorf("em: truncated capture at sample %d: %w", d.Emitted(), io.ErrUnexpectedEOF)
	}
	c.SampleRate, c.ClockHz, _ = d.Meta()
	// A complete capture with zero samples decodes to a nil slice; keep
	// the round-trip exact for captures written from an empty non-nil
	// slice by leaving Samples as produced.
	return &c, nil
}

// SaveCapture writes a capture to a file.
func SaveCapture(path string, c *Capture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCapture(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCapture reads a capture from a file.
func LoadCapture(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCapture(f)
}
