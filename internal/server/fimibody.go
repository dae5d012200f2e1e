package server

// The streaming decoder of the two FIMI-bearing bodies, POST /v1/datasets
// and POST /v1/datasets/{name}/append. The fimi string is unescaped as it
// arrives and handed to the caller as a reader, which feeds the FIMI parser
// (and, on an upload to a persistent server, the dataset blob), so the
// payload never exists in memory as JSON text or as a Go string. The other
// members are small: they are gathered into an object that encoding/json
// decodes with DisallowUnknownFields, so their matching rules are the ones
// every other endpoint has.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// bodyReaders recycles the read buffers of FIMI-bearing bodies, so an
// append pays for none.
var bodyReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}

// decodeFIMIBody reads r's JSON body, capped at the server's body limit,
// into dst, except for its fimi member: a non-empty fimi string is passed
// to fimi as a reader of its unescaped text. On failure it writes the error
// response and returns (outcome, false): 413 past the cap, 400 for bad
// JSON, unknown fields, trailing data, a second fimi member, or an error
// from fimi.
func (s *Server) decodeFIMIBody(w http.ResponseWriter, r *http.Request, dst any, fimi func(io.Reader) error) (string, bool) {
	br := bodyReaders.Get().(*bufio.Reader)
	br.Reset(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	err := decodeFIMIJSON(br, dst, fimi)
	br.Reset(nil)
	bodyReaders.Put(br)
	if err != nil {
		return writeDecodeError(w, err), false
	}
	return "", true
}

// errJSONEnd is a body that ends inside its JSON value.
var errJSONEnd = errors.New("decoding JSON body: unexpected end of JSON input")

// readError maps an error reading inside the body's JSON value: the end of
// the body is errJSONEnd, any other (the body cap) passes through.
func readError(err error) error {
	if err == io.EOF {
		return errJSONEnd
	}
	return err
}

// jsonSyntaxError is a body that is not the JSON the endpoint accepts.
func jsonSyntaxError(format string, args ...any) error {
	return fmt.Errorf("decoding JSON body: "+format, args...)
}

// decodeFIMIJSON is decodeFIMIBody's decoder. It accepts what
// encoding/json's Decoder accepts into dst, followed by the More check the
// other endpoints make, with one exception: a body with two fimi members is
// rejected, where encoding/json would keep the last. The fimi key matches
// case-insensitively, as encoding/json matches field names. fimi runs at
// most once, for a non-empty string, and must read its reader to the end
// for the body to be accepted.
func decodeFIMIJSON(br *bufio.Reader, dst any, fimi func(io.Reader) error) error {
	c, err := skipSpace(br)
	if err != nil {
		return jsonSyntaxError("%w", err)
	}
	switch c {
	case '{':
	case 'n':
		// encoding/json decodes a top-level null into a struct as a no-op.
		if err := expectLiteral(br, "ull"); err != nil {
			return err
		}
		return checkTrailing(br)
	default:
		return jsonSyntaxError("body is not a JSON object")
	}
	var rest []byte // the other members, as a JSON object
	seen := false
	for first := true; ; first = false {
		if c, err = skipSpace(br); err != nil {
			return readError(err)
		}
		if first && c == '}' {
			break
		}
		if c != '"' {
			return jsonSyntaxError("invalid character %q looking for an object key", c)
		}
		key, err := appendRawString(nil, br)
		if err != nil {
			return err
		}
		if c, err = skipSpace(br); err != nil {
			return readError(err)
		} else if c != ':' {
			return jsonSyntaxError("invalid character %q after object key", c)
		}
		if isFIMIKey(key) {
			if seen {
				return jsonSyntaxError("fimi is given more than once")
			}
			seen = true
			if err := streamFIMI(br, fimi); err != nil {
				return err
			}
		} else {
			if rest == nil {
				rest = append(make([]byte, 0, 128), '{')
			} else {
				rest = append(rest, ',')
			}
			rest = append(append(rest, key...), ':')
			if rest, err = appendRawValue(rest, br); err != nil {
				return err
			}
		}
		if c, err = skipSpace(br); err != nil {
			return readError(err)
		}
		if c == '}' {
			break
		}
		if c != ',' {
			return jsonSyntaxError("invalid character %q after object key:value pair", c)
		}
	}
	if err := checkTrailing(br); err != nil {
		return err
	}
	if rest != nil {
		dec := json.NewDecoder(bytes.NewReader(append(rest, '}')))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return fmt.Errorf("decoding JSON body: %w", err)
		}
	}
	return nil
}

// checkTrailing rejects data after the body's JSON value as the other
// endpoints do (json.Decoder.More): anything but white space, a read error
// (the end of the body among them), ']' or '}'.
func checkTrailing(br *bufio.Reader) error {
	if c, err := skipSpace(br); err == nil && c != ']' && c != '}' {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

// streamFIMI reads the fimi member's value: null (ignored, as encoding/json
// leaves the field empty) or a string, whose unescaped text a non-empty
// string passes to fimi.
func streamFIMI(br *bufio.Reader, fimi func(io.Reader) error) error {
	c, err := skipSpace(br)
	switch {
	case err != nil:
		return readError(err)
	case c == 'n':
		return expectLiteral(br, "ull")
	case c != '"':
		return jsonSyntaxError("fimi must be a string")
	}
	if next, err := br.Peek(1); err == nil && next[0] == '"' {
		_, _ = br.Discard(1)
		return nil // the empty string, which means no fimi
	}
	sr := &jsonString{br: br}
	if err := fimi(sr); err != nil {
		return err
	}
	if !sr.done {
		// fimi stopped before the closing quote: the rest must still be a
		// valid string.
		if _, err := io.Copy(io.Discard, sr); err != nil {
			return err
		}
	}
	return nil
}

// isSpace reports JSON white space.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace returns the next byte after JSON white space, consumed.
func skipSpace(br *bufio.Reader) (byte, error) {
	for {
		c, err := br.ReadByte()
		if err != nil || !isSpace(c) {
			return c, err
		}
	}
}

// expectLiteral consumes the rest of a literal whose first byte was read.
func expectLiteral(br *bufio.Reader, rest string) error {
	for i := 0; i < len(rest); i++ {
		c, err := br.ReadByte()
		if err != nil {
			return readError(err)
		}
		if c != rest[i] {
			return jsonSyntaxError("invalid character %q in literal", c)
		}
	}
	return nil
}

// isFIMIKey reports whether a raw JSON object key names the fimi field.
func isFIMIKey(raw []byte) bool {
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw[1:len(raw)-1], []byte("fimi"))
	}
	var key string
	return json.Unmarshal(raw, &key) == nil && bytes.EqualFold([]byte(key), []byte("fimi"))
}

// appendRawString appends a JSON string, whose opening quote was read, to
// dst as it stands, quotes included. Escapes are not checked here:
// encoding/json checks the string where it decodes it.
func appendRawString(dst []byte, br *bufio.Reader) ([]byte, error) {
	dst = append(dst, '"')
	for escaped := false; ; {
		c, err := br.ReadByte()
		if err != nil {
			return nil, readError(err)
		}
		dst = append(dst, c)
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			return dst, nil
		}
	}
}

// appendRawValue appends one JSON value to dst as it stands, for
// encoding/json to check and decode: a string, an object or array (to its
// matching close), or the bytes of a literal or number up to the next
// delimiter.
func appendRawValue(dst []byte, br *bufio.Reader) ([]byte, error) {
	c, err := skipSpace(br)
	if err != nil {
		return nil, readError(err)
	}
	switch c {
	case '"':
		return appendRawString(dst, br)
	case '{', '[':
		dst = append(dst, c)
		for depth := 1; depth > 0; {
			if c, err = br.ReadByte(); err != nil {
				return nil, readError(err)
			}
			switch c {
			case '"':
				if dst, err = appendRawString(dst, br); err != nil {
					return nil, err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			dst = append(dst, c)
		}
		return dst, nil
	}
	for {
		if c == ',' || c == '}' || c == ']' || isSpace(c) {
			return dst, br.UnreadByte()
		}
		dst = append(dst, c)
		if c, err = br.ReadByte(); err != nil {
			return dst, nil // the end of the body ends the literal
		}
	}
}

// jsonString reads the unescaped text of one JSON string, whose opening
// quote was read, and reports io.EOF after its closing quote. It decodes
// escapes as encoding/json does (a lone or unpaired surrogate becomes
// U+FFFD) and rejects control characters. Invalid UTF-8 passes through
// unchanged, where encoding/json substitutes U+FFFD: the FIMI parser
// rejects both alike.
type jsonString struct {
	br   *bufio.Reader
	done bool
	esc  [utf8.UTFMax]byte
	pend []byte // the part of an escape's text not yet returned
}

func (s *jsonString) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(s.pend) > 0 {
			k := copy(p[n:], s.pend)
			s.pend = s.pend[k:]
			n += k
			continue
		}
		if s.done {
			break
		}
		if s.br.Buffered() == 0 {
			if _, err := s.br.Peek(1); err != nil {
				return n, readError(err)
			}
		}
		chunk, _ := s.br.Peek(min(s.br.Buffered(), len(p)-n))
		i := 0
		for i < len(chunk) && chunk[i] != '"' && chunk[i] != '\\' && chunk[i] >= 0x20 {
			i++
		}
		n += copy(p[n:], chunk[:i])
		_, _ = s.br.Discard(i)
		if i == len(chunk) {
			continue
		}
		switch c := chunk[i]; {
		case c == '"':
			_, _ = s.br.Discard(1)
			s.done = true
		case c == '\\':
			if err := s.escape(); err != nil {
				return n, err
			}
		default:
			return n, jsonSyntaxError("invalid character %q in string literal", c)
		}
	}
	if n == 0 && s.done {
		return 0, io.EOF
	}
	return n, nil
}

// escape decodes the escape at the reader's position into pend.
func (s *jsonString) escape() error {
	esc, err := s.br.Peek(2)
	if err != nil {
		return readError(err)
	}
	var r rune
	switch esc[1] {
	case '"', '\\', '/':
		r = rune(esc[1])
	case 'b':
		r = '\b'
	case 'f':
		r = '\f'
	case 'n':
		r = '\n'
	case 'r':
		r = '\r'
	case 't':
		r = '\t'
	case 'u':
		return s.unicodeEscape()
	default:
		return jsonSyntaxError("invalid escape character %q in string literal", esc[1])
	}
	_, _ = s.br.Discard(2)
	s.pend = s.esc[:utf8.EncodeRune(s.esc[:], r)]
	return nil
}

// unicodeEscape decodes the \uXXXX escape at the reader's position into
// pend. A surrogate pairs with a \u escape right after it when the two
// decode; otherwise it stands alone, as U+FFFD.
func (s *jsonString) unicodeEscape() error {
	u, err := s.br.Peek(6)
	if err != nil {
		return readError(err)
	}
	r := hex4(u[2:])
	if r < 0 {
		return jsonSyntaxError("invalid character in \\u escape")
	}
	_, _ = s.br.Discard(6)
	if utf16.IsSurrogate(r) {
		low := rune(-1)
		if next, _ := s.br.Peek(6); len(next) == 6 && next[0] == '\\' && next[1] == 'u' {
			low = hex4(next[2:])
		}
		if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
			_, _ = s.br.Discard(6)
		}
	}
	s.pend = s.esc[:utf8.EncodeRune(s.esc[:], r)]
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
