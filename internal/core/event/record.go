package event

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// CorePPE is the Record.Core value for events from the main PPE thread;
// SPE records carry the SPE index. Additional PPE threads count downward
// from CorePPE (0xFE, 0xFD, ...) so every thread has its own ordered
// stream, down to CorePPEBase.
const (
	CorePPE     = 0xFF
	CorePPEBase = 0xF0
)

// CoreName renders a core byte for humans: "SPE3", "PPE", "PPE.1", ...
func CoreName(c uint8) string { return coreNames[c] }

// coreNames is CoreName for every core byte, precomputed: renderers
// name a core once per output row.
var coreNames = func() (t [256]string) {
	for c := range t {
		switch {
		case c < CorePPEBase:
			t[c] = fmt.Sprintf("SPE%d", c)
		case c == CorePPE:
			t[c] = "PPE"
		default:
			t[c] = fmt.Sprintf("PPE.%d", CorePPE-c)
		}
	}
	return t
}()

// Record flags.
const (
	// FlagDecrTime marks Time as elapsed SPU-decrementer ticks since the
	// program-start anchor (SPE records); without it Time is an absolute
	// PPE timebase tick.
	FlagDecrTime = 1 << 0
	// FlagHasStr marks a trailing string payload.
	FlagHasStr = 1 << 1
)

// MaxStrLen is the longest string payload a record can carry; longer
// strings are truncated by the writer.
const MaxStrLen = 200

// headerSize is the fixed part of an encoded record:
// size u8 | id u16 | core u8 | flags u8 | time u64 | nargs u8.
const headerSize = 1 + 2 + 1 + 1 + 8 + 1

// MinRecordSize is the smallest possible encoded record (a zero-arg
// record is just the header). Decoders use it to bound the record count
// of a buffer from its byte length.
const MinRecordSize = headerSize

// Record is one decoded trace record.
type Record struct {
	ID    ID
	Core  uint8 // SPE index, or CorePPE
	Flags uint8
	Time  uint64
	Args  []uint64
	Str   string
}

// IsSPE reports whether the record came from an SPE.
func (r *Record) IsSPE() bool { return r.Core < CorePPEBase }

// EncodedSize returns the byte length of the encoded record.
func (r *Record) EncodedSize() int {
	n := headerSize + 8*len(r.Args)
	if r.Flags&FlagHasStr != 0 {
		n += 2 + len(r.Str)
	}
	return n
}

// ErrRecordTooLarge is returned when a record cannot fit the 1-byte size
// field; writers must truncate strings to MaxStrLen to avoid it.
var ErrRecordTooLarge = errors.New("event: record exceeds 255 bytes")

// AppendTo appends the encoded record to buf and returns the result.
func (r *Record) AppendTo(buf []byte) ([]byte, error) {
	size := r.EncodedSize()
	if size > 255 {
		return buf, ErrRecordTooLarge
	}
	buf = append(buf, byte(size))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.ID))
	buf = append(buf, r.Core, r.Flags)
	buf = binary.LittleEndian.AppendUint64(buf, r.Time)
	buf = append(buf, byte(len(r.Args)))
	for _, a := range r.Args {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	if r.Flags&FlagHasStr != 0 {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Str)))
		buf = append(buf, r.Str...)
	}
	return buf, nil
}

// Decode decodes one record from the front of buf, returning the record
// and the number of bytes consumed. Errors identify structural corruption;
// an io-style short buffer yields ErrShortRecord so stream readers can
// distinguish truncation from garbage.
var ErrShortRecord = errors.New("event: truncated record")

// Decode parses the first record in buf.
func Decode(buf []byte) (Record, int, error) {
	r, n, _, err := DecodeInto(buf, nil)
	return r, n, err
}

// ScanChunk walks the record framing of one chunk — size bytes and
// zero-padding runs only, no field decoding — and returns an upper bound
// on the records and argument words a full decode of the same bytes can
// produce. Bulk decoders size their record slice and argument arena from
// it instead of assuming every record is MinRecordSize, which
// over-allocates several-fold on arg-heavy streams.
//
// The bound is safe against hostile input: the scan stops at the first
// record the decoder would reject for framing (size below the header or
// past the buffer), and the word count covers every byte the scanned
// records own beyond their headers — at least the argument words
// DecodeInto can accept per record (it rejects args overflowing the
// record's declared size before appending any). The decoder therefore
// never appends more words than ScanChunk counted, so an arena sized
// from it cannot regrow while earlier records alias its backing array.
func ScanChunk(data []byte) (records, argWords int) {
	bytes := 0 // record bytes walked, headers included
	for len(data) > 0 {
		if data[0] == 0 {
			// DMA-alignment padding between buffer flushes.
			n := 1
			for n < len(data) && data[n] == 0 {
				n++
			}
			data = data[n:]
			continue
		}
		size := int(data[0])
		if size < headerSize || size > len(data) {
			break
		}
		records++
		bytes += size
		data = data[size:]
	}
	return records, (bytes - records*headerSize) / 8
}

// DecodeInto parses the first record in buf like Decode, but appends any
// arguments to arena instead of allocating a fresh slice per record; the
// returned record's Args aliases the appended tail of the returned arena.
// Bulk decoders size the arena's capacity up front (a chunk of n data
// bytes can never hold more than n/8 argument words) so growth cannot
// reallocate while earlier records' Args still alias the backing array.
// Zero-argument records keep Args nil, matching Decode.
func DecodeInto(buf []byte, arena []uint64) (Record, int, []uint64, error) {
	var r Record
	n, arena, err := DecodeNext(&r, buf, arena)
	return r, n, arena, err
}

// DecodeNext is DecodeInto writing the record into *dst instead of
// returning it by value: bulk decoders point dst at the next slot of
// their preallocated record slice, skipping two 64-byte struct copies
// per record (the return and the append). On error *dst is not written.
func DecodeNext(dst *Record, buf []byte, arena []uint64) (int, []uint64, error) {
	if len(buf) < 1 {
		return 0, arena, ErrShortRecord
	}
	size := int(buf[0])
	if size < headerSize {
		return 0, arena, fmt.Errorf("event: record size %d below header size", size)
	}
	if len(buf) < size {
		return 0, arena, ErrShortRecord
	}
	id := ID(binary.LittleEndian.Uint16(buf[1:3]))
	nargs := int(buf[13])
	// Metadata via pointer, not Lookup: copying the Info struct per
	// record is measurable in bulk decode, and only the arity and (on
	// the error paths) the name are needed.
	if id == idInvalid || id >= MaxID {
		return 0, arena, fmt.Errorf("event: unknown event ID %d", id)
	}
	info := &table[id]
	if nargs != len(info.Args) {
		return 0, arena, fmt.Errorf("event: %s has %d args, expected %d", info.Name, nargs, len(info.Args))
	}
	off := headerSize
	if off+8*nargs > size {
		return 0, arena, fmt.Errorf("event: %s args overflow record size", info.Name)
	}
	flags := buf[4]
	var args []uint64
	if nargs > 0 {
		start := len(arena)
		for i := 0; i < nargs; i++ {
			arena = append(arena, binary.LittleEndian.Uint64(buf[off:off+8]))
			off += 8
		}
		args = arena[start:len(arena):len(arena)]
	}
	var str string
	if flags&FlagHasStr != 0 {
		if off+2 > size {
			return 0, arena, fmt.Errorf("event: %s string length overflows record", info.Name)
		}
		n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
		off += 2
		if off+n != size {
			return 0, arena, fmt.Errorf("event: %s string payload inconsistent with record size", info.Name)
		}
		str = string(buf[off : off+n])
		off += n
	}
	if off != size {
		return 0, arena, fmt.Errorf("event: %s trailing bytes in record", info.Name)
	}
	dst.ID = id
	dst.Core = buf[3]
	dst.Flags = flags
	dst.Time = binary.LittleEndian.Uint64(buf[5:13])
	dst.Args = args
	dst.Str = str
	return size, arena, nil
}

// Arg returns the value of the named argument, looked up through the
// metadata table.
func (r *Record) Arg(name string) (uint64, bool) {
	info, ok := Lookup(r.ID)
	if !ok {
		return 0, false
	}
	for i, n := range info.Args {
		if n == name && i < len(r.Args) {
			return r.Args[i], true
		}
	}
	return 0, false
}

// String renders the record for human consumption.
func (r *Record) String() string {
	info, _ := Lookup(r.ID)
	s := fmt.Sprintf("[%s t=%d] %s", CoreName(r.Core), r.Time, info.Name)
	for i, a := range r.Args {
		name := fmt.Sprintf("a%d", i)
		if i < len(info.Args) {
			name = info.Args[i]
		}
		s += fmt.Sprintf(" %s=%d", name, a)
	}
	if r.Flags&FlagHasStr != 0 {
		s += fmt.Sprintf(" %q", r.Str)
	}
	return s
}
