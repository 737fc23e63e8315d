package netlist

import (
	"math"
	"unicode"
	"unicode/utf8"
)

// The PHG and hMETIS readers tokenize each scanned line in place: fields
// are subslices of the scanner's buffer, numbers are parsed from bytes, and
// only the names a hypergraph keeps are copied out as strings. fields
// splits exactly as strings.Fields does and parseInt accepts exactly what
// strconv.ParseInt does, so the formats are those of the strings-based
// readers kept as the test oracle.

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isSpace reports whether r separates fields: unicode.IsSpace, the rule
// strings.Fields splits on.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiSpace[r]
	}
	return unicode.IsSpace(r)
}

// fields appends the fields of line to dst and returns it, splitting as
// strings.Fields does: around each run of unicode.IsSpace runes, with an
// invalid UTF-8 byte counting as a non-space rune. The fields alias line.
func fields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if isSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseInt parses b as strconv.ParseInt(string(b), 10, 64) does: an
// optional '+' or '-', then one or more decimal digits and nothing else,
// within the int64 range. ok is false wherever ParseInt returns an error.
func parseInt(b []byte) (v int64, ok bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = uint64(1) << 63 // |math.MinInt64|
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || n > limit/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
		if n > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// parseInt32 parses b as strconv.ParseInt(string(b), 10, 32) does.
func parseInt32(b []byte) (int64, bool) {
	v, ok := parseInt(b)
	return v, ok && v >= math.MinInt32 && v <= math.MaxInt32
}
