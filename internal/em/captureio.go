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

// Decoder reassembles a stream of little-endian float64 words in
// bounded memory, regardless of how the stream is chunked: bytes may
// arrive one at a time or in megabyte blocks, across any number of
// FeedBlock calls, with words split anywhere. It backs both ReadCapture
// (after the header) and the profiling service's ingest, where samples
// arrive over the network as raw words — the acquisition metadata came
// with the session-create call — and must never be buffered whole. The
// zero Decoder is at the start of a stream.
type Decoder struct {
	// Word reassembly across FeedBlock boundaries.
	partial [8]byte
	np      int

	emitted int64
}

// NewRawDecoder returns a decoder at the start of a stream, the same as
// new(Decoder). It stays because the benchmark harness (bench/layers.go)
// builds its decoder with it.
func NewRawDecoder() *Decoder { return new(Decoder) }

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
// block: aligned whole words are decoded in bulk; only word fragments
// spanning chunk boundaries take the byte-at-a-time path (those emit a
// one-sample block). The sequence of samples emitted is the same for
// any chunking of the stream. Every byte sequence is a valid stream, so
// the error is always nil; the result stays because the benchmark
// harness (bench/layers.go) checks it.
//
// The slice passed to emit is only valid for the duration of the call
// and is reused afterwards — emit must consume it (e.g. feed it to
// StreamAnalyzer.PushBlock, which retains nothing) rather than keep it.
func (d *Decoder) FeedBlock(p []byte, emit func([]float64)) error {
	var bp *[]float64
	var block []float64
	for len(p) > 0 {
		if bp == nil {
			bp = decodeBlockPool.Get().(*[]float64)
			block = *bp
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
			block[0] = math.Float64frombits(binary.LittleEndian.Uint64(d.partial[:]))
			emit(block[:1])
			continue
		}
		for words := len(p) / 8; words > 0; {
			run := min(words, decodeBlockSamples)
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

// DropFragment discards a half-assembled word left by an interrupted
// FeedBlock. The profiling service calls it before replay-skipping a
// retried push body: the retry resends the fragmented sample whole, so
// the stale prefix bytes must not be prepended to the resent ones.
func (d *Decoder) DropFragment() { d.np = 0 }

// Emitted returns the number of samples decoded so far.
func (d *Decoder) Emitted() int64 { return d.emitted }

// DecoderState is a serializable snapshot of a Decoder mid-stream, part
// of the profiling service's session hand-off wire format: the receiving
// shard must resume word reassembly at the exact byte the old owner
// stopped at, or a float64 split across the hand-off boundary would be
// decoded wrong (or twice).
type DecoderState struct {
	Partial []byte `json:"partial,omitempty"`
	Emitted int64  `json:"emitted"`
}

// State snapshots the decoder.
func (d *Decoder) State() DecoderState {
	return DecoderState{Partial: append([]byte(nil), d.partial[:d.np]...), Emitted: d.emitted}
}

// RestoreDecoder rebuilds a decoder from a snapshot; feeding the
// remaining stream bytes continues bit-identically to the exporting
// instance.
func RestoreDecoder(st DecoderState) (*Decoder, error) {
	if len(st.Partial) >= 8 {
		return nil, fmt.Errorf("em: decoder state with %d-byte word fragment", len(st.Partial))
	}
	if st.Emitted < 0 {
		return nil, fmt.Errorf("em: decoder state with negative sample count %d", st.Emitted)
	}
	d := &Decoder{emitted: st.Emitted}
	d.np = copy(d.partial[:], st.Partial)
	return d, nil
}

// readChunk sizes ReadCapture's transfer buffer (64 KiB).
const readChunk = 64 * 1024

// ReadCapture deserialises a capture written by WriteCapture: it checks
// the header, then decodes exactly the declared sample count, ignoring
// any bytes after it. It reads in bounded chunks and grows the sample
// slice as data actually arrives, so a truncated or hostile header that
// declares billions of samples fails after a 64 KiB read, not a 128 GiB
// allocation.
func ReadCapture(r io.Reader) (*Capture, error) {
	var hdr [headerSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if magic := hdr[:len(captureMagic)]; n >= len(magic) && string(magic) != captureMagic {
		return nil, fmt.Errorf("em: not a capture file (magic %q)", magic)
	}
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("em: reading capture header: %w", io.ErrUnexpectedEOF)
	default:
		return nil, err
	}
	meta := hdr[len(captureMagic):]
	c := &Capture{
		SampleRate: math.Float64frombits(binary.LittleEndian.Uint64(meta)),
		ClockHz:    math.Float64frombits(binary.LittleEndian.Uint64(meta[8:])),
	}
	declared := int64(binary.LittleEndian.Uint64(meta[16:]))
	if declared < 0 || declared > MaxDeclaredSamples {
		return nil, fmt.Errorf("em: implausible sample count %d", declared)
	}
	if !(c.SampleRate > 0) || !(c.ClockHz > 0) || math.IsInf(c.SampleRate, 0) || math.IsInf(c.ClockHz, 0) {
		return nil, fmt.Errorf("em: invalid capture metadata rate=%v clock=%v", c.SampleRate, c.ClockHz)
	}
	var d Decoder
	appendTo := func(xs []float64) { c.Samples = append(c.Samples, xs...) }
	buf := make([]byte, readChunk)
	for left := declared * 8; left > 0; {
		n, err := r.Read(buf[:min(int64(len(buf)), left)])
		_ = d.FeedBlock(buf[:n], appendTo) // always nil
		left -= int64(n)
		switch {
		case err == io.EOF && left > 0:
			return nil, fmt.Errorf("em: truncated capture at sample %d: %w", d.Emitted(), io.ErrUnexpectedEOF)
		case err != nil && err != io.EOF:
			return nil, err
		}
	}
	return c, nil
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
