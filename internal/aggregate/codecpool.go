package aggregate

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// This file implements the pooled, append-based side of the codec
// layer. Sealing a batch is the hottest CPU path in the hierarchy
// (every upward observation payload is compressed at fog layer 1, the
// paper's §V.B experiment), and a flate/gzip encoder carries ~1MB of
// state — allocating one per sealed batch made allocation pressure,
// not deflate itself, the bottleneck once flushes became concurrent.
// Encoders, decoders and scratch buffers are therefore pooled and
// reused; AppendCompress/AppendDecompress append into caller-supplied
// slices so steady-state sealing does not touch the heap.

// DefaultMaxDecompressedSize bounds AppendDecompress output when the caller
// passes no explicit limit: decompression bombs from a corrupt or
// hostile peer fail with *SizeLimitError instead of exhausting
// memory.
const DefaultMaxDecompressedSize = 1 << 30 // 1 GiB

// SizeLimitError is returned when decompressed output would exceed
// the caller's (or the default) max-decompressed-size limit.
type SizeLimitError struct {
	Codec Codec
	Limit int
}

// Error implements error.
func (e *SizeLimitError) Error() string {
	return fmt.Sprintf("decompress %s: output exceeds %d-byte limit", e.Codec, e.Limit)
}

// appendWriter is an io.Writer that appends to a byte slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// compressor pairs a reusable deflate-family writer with its output
// sink so a pooled entry is a single allocation.
type compressor struct {
	fw  *flate.Writer // nil for gzip entries
	gw  *gzip.Writer  // nil for flate entries
	out appendWriter
}

var flateCompressorPool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil { // only possible for an invalid level
		panic(err)
	}
	return &compressor{fw: w}
}}

// fastFlateCompressorPool holds flate writers at flate.BestSpeed for
// AppendFlateBestSpeed, kept apart from flateCompressorPool so
// CodecFlate's own output stays at DefaultCompression.
var fastFlateCompressorPool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil { // only possible for an invalid level
		panic(err)
	}
	return &compressor{fw: w}
}}

var gzipCompressorPool = sync.Pool{New: func() any {
	return &compressor{gw: gzip.NewWriter(io.Discard)}
}}

// zipFlatePool holds flate writers at archive/zip's compression level
// (5), kept separate from flateCompressorPool (DefaultCompression) so
// pooled zip output stays byte-identical to zip.NewWriter's own
// deflate stream.
var zipFlatePool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, 5)
	if err != nil {
		panic(err)
	}
	return w
}}

// pooledZipWriter adapts a pooled flate writer to the io.WriteCloser
// contract of zip.Writer.RegisterCompressor.
type pooledZipWriter struct{ fw *flate.Writer }

func (w *pooledZipWriter) Write(p []byte) (int, error) { return w.fw.Write(p) }

func (w *pooledZipWriter) Close() error {
	err := w.fw.Close()
	zipFlatePool.Put(w.fw)
	w.fw = nil
	return err
}

// decompressor pairs a reusable inflater with the bytes.Reader that
// feeds it.
type decompressor struct {
	br bytes.Reader
	fr io.ReadCloser // flate entries; implements flate.Resetter
	gr *gzip.Reader  // gzip entries
}

var flateDecompressorPool = sync.Pool{New: func() any {
	d := &decompressor{}
	d.fr = flate.NewReader(&d.br)
	return d
}}

var gzipDecompressorPool = sync.Pool{New: func() any {
	return &decompressor{gr: new(gzip.Reader)}
}}

// zipInflatePool holds inflaters for zip entry decompression.
var zipInflatePool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// pooledZipReader adapts a pooled inflater to the io.ReadCloser
// contract of zip.Reader.RegisterDecompressor.
type pooledZipReader struct{ fr io.ReadCloser }

func (r *pooledZipReader) Read(p []byte) (int, error) { return r.fr.Read(p) }

func (r *pooledZipReader) Close() error {
	zipInflatePool.Put(r.fr)
	r.fr = nil
	return nil
}

// AppendCompress appends the compressed frame of data to dst and
// returns the extended slice. It is the allocation-free variant of
// Compress: flate and gzip encoders come from pools, and the only
// heap traffic is growing dst when its capacity is exceeded.
func AppendCompress(dst []byte, c Codec, data []byte) ([]byte, error) {
	switch c {
	case CodecNone:
		return append(dst, data...), nil
	case CodecFlate:
		return appendFlate(&flateCompressorPool, dst, data)
	case CodecGzip:
		cw := gzipCompressorPool.Get().(*compressor)
		cw.out.b = dst
		cw.gw.Reset(&cw.out)
		_, werr := cw.gw.Write(data)
		cerr := cw.gw.Close()
		out := cw.out.b
		cw.out.b = nil
		gzipCompressorPool.Put(cw)
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return dst, fmt.Errorf("compress gzip: %w", werr)
		}
		return out, nil
	case CodecZip:
		w := appendWriter{b: dst}
		zw := zip.NewWriter(&w)
		zw.RegisterCompressor(zip.Deflate, func(out io.Writer) (io.WriteCloser, error) {
			fw := zipFlatePool.Get().(*flate.Writer)
			fw.Reset(out)
			return &pooledZipWriter{fw: fw}, nil
		})
		f, err := zw.Create(zipEntryName)
		if err != nil {
			return dst, fmt.Errorf("compress zip: %w", err)
		}
		if _, err := f.Write(data); err != nil {
			return dst, fmt.Errorf("compress zip: %w", err)
		}
		if err := zw.Close(); err != nil {
			return dst, fmt.Errorf("compress zip: %w", err)
		}
		return w.b, nil
	default:
		return dst, fmt.Errorf("compress: unknown codec %d", int(c))
	}
}

// AppendFlateBestSpeed appends the raw DEFLATE stream of data at
// flate.BestSpeed to dst and returns the extended slice. The output is
// a CodecFlate frame — AppendDecompress(…, CodecFlate, …) opens it —
// that trades 20–40 % more bytes than CodecZip for a third of the
// encode time, for payloads sealed on a request's critical path.
func AppendFlateBestSpeed(dst, data []byte) ([]byte, error) {
	return appendFlate(&fastFlateCompressorPool, dst, data)
}

// appendFlate appends the deflate stream of data to dst with a
// compressor from pool.
func appendFlate(pool *sync.Pool, dst, data []byte) ([]byte, error) {
	cw := pool.Get().(*compressor)
	cw.out.b = dst
	cw.fw.Reset(&cw.out)
	_, werr := cw.fw.Write(data)
	cerr := cw.fw.Close()
	out := cw.out.b
	cw.out.b = nil
	pool.Put(cw)
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return dst, fmt.Errorf("compress flate: %w", werr)
	}
	return out, nil
}

// AppendDecompress appends the decompressed content of data to dst
// and returns the extended slice. Output is pre-sized from the
// compressed length and bounded by max bytes (<= 0 selects
// DefaultMaxDecompressedSize); exceeding the bound returns a
// *SizeLimitError. Like AppendCompress, inflater state is pooled so
// the only steady-state allocation is growing dst.
func AppendDecompress(dst []byte, c Codec, data []byte, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxDecompressedSize
	}
	if max > maxInt-1 {
		max = maxInt - 1 // appendReadAll sizes capacity to max+1
	}
	switch c {
	case CodecNone:
		if len(data) > max {
			return dst, &SizeLimitError{Codec: c, Limit: max}
		}
		return append(dst, data...), nil
	case CodecFlate:
		d := flateDecompressorPool.Get().(*decompressor)
		d.br.Reset(data)
		out, err := dst, error(nil)
		if rerr := d.fr.(flate.Resetter).Reset(&d.br, nil); rerr != nil {
			err = rerr
		} else {
			out, err = appendReadAll(dst, d.fr, sizeHint(len(data)), max, c)
		}
		d.br.Reset(nil) // don't pin the caller's payload from the pool
		flateDecompressorPool.Put(d)
		if err != nil {
			return dst, wrapDecompressErr("flate", err)
		}
		return out, nil
	case CodecGzip:
		d := gzipDecompressorPool.Get().(*decompressor)
		d.br.Reset(data)
		out, err := dst, error(nil)
		if rerr := d.gr.Reset(&d.br); rerr != nil {
			err = rerr
		} else {
			out, err = appendReadAll(dst, d.gr, sizeHint(len(data)), max, c)
		}
		d.br.Reset(nil) // don't pin the caller's payload from the pool
		gzipDecompressorPool.Put(d)
		if err != nil {
			return dst, wrapDecompressErr("gzip", err)
		}
		return out, nil
	case CodecZip:
		zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return dst, fmt.Errorf("decompress zip: %w", err)
		}
		zr.RegisterDecompressor(zip.Deflate, func(r io.Reader) io.ReadCloser {
			fr := zipInflatePool.Get().(io.ReadCloser)
			if err := fr.(flate.Resetter).Reset(r, nil); err != nil {
				zipInflatePool.Put(fr)
				return io.NopCloser(&errReader{err: err})
			}
			return &pooledZipReader{fr: fr}
		})
		for _, f := range zr.File {
			if f.Name != zipEntryName {
				continue
			}
			if f.UncompressedSize64 > uint64(max) {
				return dst, &SizeLimitError{Codec: c, Limit: max}
			}
			rc, err := f.Open()
			if err != nil {
				return dst, fmt.Errorf("decompress zip: %w", err)
			}
			// The claimed size is attacker-controlled central-directory
			// data: use it only as a capped growth hint (appendReadAll
			// doubles past it), never as an up-front allocation.
			hint := int(f.UncompressedSize64)
			if hint > 1<<20 {
				hint = 1 << 20
			}
			out, err := appendReadAll(dst, rc, hint, max, c)
			closeErr := rc.Close()
			if err != nil {
				return dst, wrapDecompressErr("zip", err)
			}
			if closeErr != nil {
				return dst, fmt.Errorf("decompress zip: %w", closeErr)
			}
			return out, nil
		}
		return dst, fmt.Errorf("decompress zip: entry %q not found", zipEntryName)
	default:
		return dst, fmt.Errorf("decompress: unknown codec %d", int(c))
	}
}

// errReader always fails with its error.
type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

// wrapDecompressErr keeps *SizeLimitError matchable by errors.As
// while annotating inflater failures with their codec.
func wrapDecompressErr(codec string, err error) error {
	if _, ok := err.(*SizeLimitError); ok {
		return err
	}
	return fmt.Errorf("decompress %s: %w", codec, err)
}

// sizeHint estimates decompressed size from compressed size. The
// paper reports ~78% reduction on observation payloads, so 4x is a
// reasonable first growth step; appendReadAll doubles from there.
func sizeHint(compressed int) int {
	const maxHint = 1 << 20
	h := compressed * 4
	if h > maxHint {
		h = maxHint
	}
	if h < 512 {
		h = 512
	}
	return h
}

// maxInt is the largest int value (platform-sized).
const maxInt = int(^uint(0) >> 1)

// appendReadAll reads r to EOF appending into dst, growing
// geometrically from hint and failing with *SizeLimitError once more
// than max bytes have been produced. The caller guarantees
// max <= maxInt-1 so max+1 cannot overflow.
func appendReadAll(dst []byte, r io.Reader, hint, max int, c Codec) ([]byte, error) {
	base := len(dst)
	if hint > 0 && cap(dst)-base < hint {
		grown := make([]byte, base, base+hint)
		copy(grown, dst)
		dst = grown
	}
	for {
		if len(dst) == cap(dst) {
			produced := len(dst) - base
			if produced > max {
				return dst, &SizeLimitError{Codec: c, Limit: max}
			}
			grow := cap(dst) - base
			if grow < 512 {
				grow = 512
			}
			// Never allocate past max+1 produced bytes: capacity for
			// exactly max bytes plus one lets the reader deliver io.EOF
			// on a stream of exactly max bytes (which is legal) while
			// the post-read exclusive check catches max+1.
			if rem := max + 1 - produced; grow > rem {
				grow = rem
			}
			grown := make([]byte, len(dst), cap(dst)+grow)
			copy(grown, dst)
			dst = grown
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst)-base > max {
			return dst, &SizeLimitError{Codec: c, Limit: max}
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
