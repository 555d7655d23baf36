package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The oracle compares responses by a canonical hash of their JSON value
// tree: object fields combine in any order, array elements in sequence,
// strings after unescaping, and a field whose value is empty ("", 0,
// false, null, [] or {}) counts as absent, so omitempty makes no
// difference. The hash depends on field names and values only, not on
// how the server lays the bytes out. Responses are hashed by a scanner
// that allocates nothing, since decoding every response with
// encoding/json would compete with the server for the CPUs.

// hv is the hash of one JSON value.
type hv struct {
	h     uint64
	empty bool
}

func mix(x uint64) uint64 { // splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// seed keys every hash of the process; the oracle and the scanner run
// in the same process, so their hashes agree.
var seed = maphash.MakeSeed()

// Type tags keep equal text of different JSON types apart.
const (
	tagString = 0x73 + iota<<8
	tagNumber
	tagLiteral
	tagKey
	tagObject
	tagArray
)

func hstr(s string) hv { return hv{h: mix(maphash.String(seed, s) ^ tagString), empty: s == ""} }

func hstrBytes(b []byte) hv {
	return hv{h: mix(maphash.Bytes(seed, b) ^ tagString), empty: len(b) == 0}
}

func hint(n int64) hv { return hnum(strconv.FormatInt(n, 10)) }

func hnum(text string) hv {
	return hv{h: mix(maphash.String(seed, text) ^ tagNumber), empty: text == "0"}
}

func hnumBytes(text []byte) hv {
	return hv{h: mix(maphash.Bytes(seed, text) ^ tagNumber), empty: len(text) == 1 && text[0] == '0'}
}

// object accumulates the fields of one object.
type object struct {
	sum uint64
	n   int
}

func (o *object) field(key string, v hv) {
	if !v.empty {
		o.add(maphash.String(seed, key)^tagKey, v)
	}
}

func (o *object) fieldBytes(key []byte, v hv) {
	if !v.empty {
		o.add(maphash.Bytes(seed, key)^tagKey, v)
	}
}

func (o *object) add(keyHash uint64, v hv) {
	o.sum += mix(keyHash ^ v.h*0x9e3779b97f4a7c15)
	o.n++
}

func (o *object) value() hv { return hv{h: mix(o.sum ^ tagObject), empty: o.n == 0} }

// array accumulates the elements of one array.
type array struct {
	acc uint64
	n   int
}

func (a *array) add(v hv) {
	a.acc = mix(a.acc*0x9e3779b97f4a7c15 ^ v.h)
	a.n++
}

func (a *array) value() hv { return hv{h: mix(a.acc ^ tagArray), empty: a.n == 0} }

// scanned is the hash of a response plus the top-level fields the
// client acts on.
type scanned struct {
	hash       uint64
	id         int64
	totalRows  int64
	nextCursor string
}

// topLevelIgnored are the response fields the oracle does not predict:
// the server-assigned session id, and the history and cursor fields,
// which follow from the script but not from the window it checks.
var topLevelIgnored = map[string]bool{"id": true, "nextCursor": true, "history": true, "cursor": true}

// scanResponse hashes one response body.
func scanResponse(body []byte) (scanned, error) {
	s := scanner{b: body}
	var out scanned
	s.skipSpace()
	if !s.consume('{') {
		return out, s.errf("want an object")
	}
	var obj object
	for first := true; ; first = false {
		s.skipSpace()
		if s.consume('}') {
			break
		}
		if !first && !s.consume(',') {
			return out, s.errf("want ',' or '}'")
		}
		s.skipSpace()
		key, err := s.str(nil)
		if err != nil {
			return out, err
		}
		s.skipSpace()
		if !s.consume(':') {
			return out, s.errf("want ':'")
		}
		s.skipSpace()
		start := s.i
		v, err := s.value(0)
		if err != nil {
			return out, err
		}
		raw := body[start:s.i]
		switch string(key) {
		case "id":
			out.id, _ = strconv.ParseInt(string(raw), 10, 64)
		case "totalRows":
			out.totalRows, _ = strconv.ParseInt(string(raw), 10, 64)
		case "nextCursor":
			if len(raw) >= 2 {
				out.nextCursor = string(raw[1 : len(raw)-1])
			}
		}
		if !topLevelIgnored[string(key)] {
			obj.fieldBytes(key, v)
		}
	}
	s.skipSpace()
	if s.i != len(s.b) {
		return out, s.errf("trailing data")
	}
	out.hash = obj.value().h
	return out, nil
}

type scanner struct {
	b   []byte
	i   int
	buf []byte // unescaped string scratch
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("response JSON at byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

const maxDepth = 32

// value hashes the JSON value at the cursor.
func (s *scanner) value(depth int) (hv, error) {
	if depth > maxDepth {
		return hv{}, s.errf("nesting deeper than %d", maxDepth)
	}
	if s.i >= len(s.b) {
		return hv{}, s.errf("unexpected end")
	}
	switch c := s.b[s.i]; {
	case c == '"':
		str, err := s.str(s.buf[:0])
		if err != nil {
			return hv{}, err
		}
		return hstrBytes(str), nil
	case c == '{':
		s.i++
		var obj object
		for first := true; ; first = false {
			s.skipSpace()
			if s.consume('}') {
				return obj.value(), nil
			}
			if !first && !s.consume(',') {
				return hv{}, s.errf("want ',' or '}'")
			}
			s.skipSpace()
			key, err := s.str(nil)
			if err != nil {
				return hv{}, err
			}
			s.skipSpace()
			if !s.consume(':') {
				return hv{}, s.errf("want ':'")
			}
			s.skipSpace()
			v, err := s.value(depth + 1)
			if err != nil {
				return hv{}, err
			}
			obj.fieldBytes(key, v)
		}
	case c == '[':
		s.i++
		var arr array
		for first := true; ; first = false {
			s.skipSpace()
			if s.consume(']') {
				return arr.value(), nil
			}
			if !first && !s.consume(',') {
				return hv{}, s.errf("want ',' or ']'")
			}
			s.skipSpace()
			v, err := s.value(depth + 1)
			if err != nil {
				return hv{}, err
			}
			arr.add(v)
		}
	case c == '-' || c >= '0' && c <= '9':
		start := s.i
		for s.i < len(s.b) && (s.b[s.i] == '-' || s.b[s.i] == '+' || s.b[s.i] == '.' ||
			s.b[s.i] == 'e' || s.b[s.i] == 'E' || s.b[s.i] >= '0' && s.b[s.i] <= '9') {
			s.i++
		}
		return hnumBytes(s.b[start:s.i]), nil
	default:
		for _, lit := range [...]string{"true", "false", "null"} {
			if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
				s.i += len(lit)
				return hv{h: mix(maphash.String(seed, lit) ^ tagLiteral), empty: lit != "true"}, nil
			}
		}
		return hv{}, s.errf("unexpected %q", c)
	}
}

// str reads a string literal and returns its unescaped bytes: a slice
// of the body when it has no escapes, else of buf.
func (s *scanner) str(buf []byte) ([]byte, error) {
	if !s.consume('"') {
		return nil, s.errf("want a string")
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, s.errf("unterminated string")
	}
	if seg := s.b[s.i : s.i+end]; bytes.IndexByte(seg, '\\') < 0 {
		s.i += end + 1
		return seg, nil
	}
	return s.strEscaped(buf)
}

var errBadEscape = errors.New("bad escape")

func (s *scanner) strEscaped(buf []byte) ([]byte, error) {
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			s.buf = buf
			return buf, nil
		case c != '\\':
			buf = append(buf, c)
			s.i++
			continue
		}
		if s.i+1 >= len(s.b) {
			break
		}
		e := s.b[s.i+1]
		s.i += 2
		switch e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := s.hex4()
			if !ok {
				return nil, s.errf("%v", errBadEscape)
			}
			if utf16.IsSurrogate(r) {
				if s.i+1 < len(s.b) && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
					s.i += 2
					r2, ok := s.hex4()
					if !ok {
						return nil, s.errf("%v", errBadEscape)
					}
					r = utf16.DecodeRune(r, r2)
				} else {
					r = utf8.RuneError
				}
			}
			buf = utf8.AppendRune(buf, r)
		default:
			return nil, s.errf("%v", errBadEscape)
		}
	}
	return nil, s.errf("unterminated string")
}

func (s *scanner) hex4() (rune, bool) {
	if s.i+4 > len(s.b) {
		return 0, false
	}
	n, err := strconv.ParseUint(string(s.b[s.i:s.i+4]), 16, 32)
	if err != nil {
		return 0, false
	}
	s.i += 4
	return rune(n), true
}
