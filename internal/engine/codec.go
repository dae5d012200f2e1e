package engine

// Hand-rolled streaming codecs for the mechanism request/response types.
// encoding/json walks every struct through reflection and buffers through a
// pooled encodeState on every request; these codecs append straight into a
// Scratch-owned buffer and parse straight out of the request body, so the
// steady-state hot path touches no reflection and allocates no per-request
// codec machinery. Two invariants, pinned by golden and fuzz tests:
//
//   - Encoding is byte-identical to encoding/json (field order, omitempty,
//     float formatting, HTML escaping, invalid-UTF-8 replacement).
//   - Decoding accepts exactly what the serving layer's strict decoder
//     (json.Decoder + DisallowUnknownFields + the trailing-value check)
//     accepts, and produces the same request values: case-folded field
//     matching, last-field-wins duplicates (merging element-wise into
//     existing slices and pointers), null clearing reference fields but
//     leaving primitives unchanged, integer fields rejecting
//     fractions/exponents, and the same number grammar.
//
// Both directions cover the five built-in mechanisms, the only ones the
// library serves. AppendResponse and DecodeRequest report ok = false for
// any other type; encoding/json stays only as the tests' reference.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// ErrTrailingData reports a request body holding more than one JSON value;
// callers map it to the same error message the stdlib-backed decoder used.
var ErrTrailingData = errors.New("engine: trailing data after JSON value")

//
// Encoding primitives — each replicates encoding/json's output exactly.
//

// hexDigits is the encoder's lowercase hex alphabet.
const hexDigits = "0123456789abcdef"

// AppendFloat appends f exactly as encoding/json renders a float64: shortest
// decimal form, %f style within [1e-6, 1e21), %e style with a trimmed
// single-digit exponent outside it. Non-finite floats error like
// json.Marshal does, naming the value.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("engine: non-finite float %v in response", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-05" to "e-5", matching the stdlib encoder.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s as a JSON string exactly as encoding/json renders
// one with HTML escaping on (the http handlers' default): '<', '>', '&' and
// U+2028/U+2029 escaped, control characters as \uXXXX (with the \b \f \n \r
// \t shorthands), and invalid UTF-8 bytes replaced by U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloatField appends `,"<name>":<f>` (the name must need no escaping).
func appendFloatField(dst []byte, name string, f float64) ([]byte, error) {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return AppendFloat(dst, f)
}

// appendIntField appends `,"<name>":<n>`.
func appendIntField(dst []byte, name string, n int) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, int64(n), 10)
}

//
// Response encoding.
//

// AppendResponse appends resp's JSON — byte-identical to json.Marshal — to
// dst. traceOff is the byte offset (into out) where a `,"trace":<...>`
// member may be spliced to produce exactly what json.Marshal would emit with
// Billing.Trace set; it sits right after the budget_remaining value. ok is
// false, and nothing is appended, for a type other than the five built-in
// responses or for a response already carrying an inline trace. A non-nil
// err means the response holds a non-finite float, which JSON cannot
// represent.
func AppendResponse(dst []byte, resp Response) (out []byte, traceOff int, ok bool, err error) {
	switch r := resp.(type) {
	case *TopKResponse:
		if r.Trace != nil {
			return dst, 0, false, nil
		}
		out, traceOff, err = appendTopKResponse(dst, r)
	case *MaxResponse:
		if r.Trace != nil {
			return dst, 0, false, nil
		}
		out, traceOff, err = appendMaxResponse(dst, r)
	case *SVTResponse:
		if r.Trace != nil {
			return dst, 0, false, nil
		}
		out, traceOff, err = appendSVTResponse(dst, r)
	case *PipelineTopKResponse:
		if r.Trace != nil {
			return dst, 0, false, nil
		}
		out, traceOff, err = appendPipelineTopKResponse(dst, r)
	case *PipelineSVTResponse:
		if r.Trace != nil {
			return dst, 0, false, nil
		}
		out, traceOff, err = appendPipelineSVTResponse(dst, r)
	default:
		return dst, 0, false, nil
	}
	return out, traceOff, true, err
}

// appendBillingOpen opens the response object with the embedded Billing
// fields (tenant, epsilon_spent, budget_remaining) and returns the offset
// where a trace member would splice in.
func appendBillingOpen(dst []byte, b *Billing) ([]byte, int, error) {
	dst = append(dst, `{"tenant":`...)
	dst = AppendString(dst, b.Tenant)
	var err error
	if dst, err = appendFloatField(dst, "epsilon_spent", b.EpsilonSpent); err != nil {
		return dst, 0, err
	}
	if dst, err = appendFloatField(dst, "budget_remaining", b.BudgetRemaining); err != nil {
		return dst, 0, err
	}
	return dst, len(dst), nil
}

func appendTopKResponse(dst []byte, r *TopKResponse) ([]byte, int, error) {
	dst, off, err := appendBillingOpen(dst, &r.Billing)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, `,"selections":`...)
	if r.Selections == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Selections {
			if i > 0 {
				dst = append(dst, ',')
			}
			s := &r.Selections[i]
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(s.Index), 10)
			if dst, err = appendFloatField(dst, "gap", s.Gap); err != nil {
				return dst, 0, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), off, nil
}

func appendMaxResponse(dst []byte, r *MaxResponse) ([]byte, int, error) {
	dst, off, err := appendBillingOpen(dst, &r.Billing)
	if err != nil {
		return dst, 0, err
	}
	dst = appendIntField(dst, "index", r.Index)
	if dst, err = appendFloatField(dst, "gap", r.Gap); err != nil {
		return dst, 0, err
	}
	return append(dst, '}'), off, nil
}

func appendSVTResponse(dst []byte, r *SVTResponse) ([]byte, int, error) {
	dst, off, err := appendBillingOpen(dst, &r.Billing)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, `,"above":`...)
	if r.Above == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Above {
			if i > 0 {
				dst = append(dst, ',')
			}
			a := &r.Above[i]
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(a.Index), 10)
			if dst, err = appendFloatField(dst, "gap", a.Gap); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "estimate", a.Estimate); err != nil {
				return dst, 0, err
			}
			dst = append(dst, `,"branch":`...)
			dst = AppendString(dst, a.Branch)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendIntField(dst, "above_count", r.AboveCount)
	dst = appendIntField(dst, "queries_processed", r.QueriesProcessed)
	if dst, err = appendFloatField(dst, "mechanism_spent", r.MechanismSpent); err != nil {
		return dst, 0, err
	}
	return append(dst, '}'), off, nil
}

func appendPipelineTopKResponse(dst []byte, r *PipelineTopKResponse) ([]byte, int, error) {
	dst, off, err := appendBillingOpen(dst, &r.Billing)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, `,"estimates":`...)
	if r.Estimates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Estimates {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &r.Estimates[i]
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(e.Index), 10)
			if dst, err = appendFloatField(dst, "measured", e.Measured); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "refined", e.Refined); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "gap", e.Gap); err != nil {
				return dst, 0, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if dst, err = appendFloatField(dst, "measurement_variance", r.MeasurementVariance); err != nil {
		return dst, 0, err
	}
	if dst, err = appendFloatField(dst, "theoretical_error_ratio", r.TheoreticalErrorRatio); err != nil {
		return dst, 0, err
	}
	return append(dst, '}'), off, nil
}

func appendPipelineSVTResponse(dst []byte, r *PipelineSVTResponse) ([]byte, int, error) {
	dst, off, err := appendBillingOpen(dst, &r.Billing)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, `,"estimates":`...)
	if r.Estimates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Estimates {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &r.Estimates[i]
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(e.Index), 10)
			dst = append(dst, `,"branch":`...)
			dst = AppendString(dst, e.Branch)
			if dst, err = appendFloatField(dst, "gap_estimate", e.GapEstimate); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "measured", e.Measured); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "combined", e.Combined); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "combined_variance", e.CombinedVariance); err != nil {
				return dst, 0, err
			}
			if dst, err = appendFloatField(dst, "lower_bound", e.LowerBound); err != nil {
				return dst, 0, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendIntField(dst, "above_count", r.AboveCount)
	if dst, err = appendFloatField(dst, "mechanism_spent", r.MechanismSpent); err != nil {
		return dst, 0, err
	}
	if dst, err = appendFloatField(dst, "selection_remaining", r.SelectionRemaining); err != nil {
		return dst, 0, err
	}
	return append(dst, '}'), off, nil
}

//
// Request decoding.
//

// DecodeRequest parses data into a request for mech with the serving layer's
// strict semantics — json.Decoder + DisallowUnknownFields + the
// one-value-per-body check — reusing scr's buffers when it is non-nil (the
// returned request then aliases the scratch and must be consumed before the
// scratch is reused). ok is false for a mechanism other than the five
// built-ins. An empty body returns io.EOF and a trailing second value
// returns ErrTrailingData, so callers can keep their existing error mapping.
func DecodeRequest(mech Mechanism, data []byte, scr *Scratch) (req Request, ok bool, err error) {
	switch mech.(type) {
	case topkMechanism:
		r := &TopKRequest{}
		if scr != nil {
			scr.topk = TopKRequest{}
			r = &scr.topk
		}
		p := jsonParser{data: data, scr: scr}
		err = p.topLevel(func() error {
			return p.requestObject(&r.Common, func(key []byte) (bool, error) {
				if keyIs(key, "k") {
					return true, p.intField(&r.K)
				}
				return false, nil
			})
		})
		return r, true, err
	case maxMechanism:
		r := &MaxRequest{}
		if scr != nil {
			scr.max = MaxRequest{}
			r = &scr.max
		}
		p := jsonParser{data: data, scr: scr}
		err = p.topLevel(func() error {
			return p.requestObject(&r.Common, nil)
		})
		return r, true, err
	case svtMechanism:
		r := &SVTRequest{}
		if scr != nil {
			scr.svt = SVTRequest{}
			r = &scr.svt
		}
		p := jsonParser{data: data, scr: scr}
		err = p.topLevel(func() error {
			return p.requestObject(&r.Common, func(key []byte) (bool, error) {
				switch {
				case keyIs(key, "k"):
					return true, p.intField(&r.K)
				case keyIs(key, "threshold"):
					return true, p.floatField(&r.Threshold)
				case keyIs(key, "adaptive"):
					return true, p.boolField(&r.Adaptive)
				}
				return false, nil
			})
		})
		return r, true, err
	case pipelineTopKMechanism:
		r := &PipelineTopKRequest{}
		if scr != nil {
			scr.ptopk = PipelineTopKRequest{}
			r = &scr.ptopk
		}
		p := jsonParser{data: data, scr: scr}
		err = p.topLevel(func() error {
			return p.requestObject(&r.Common, func(key []byte) (bool, error) {
				switch {
				case keyIs(key, "k"):
					return true, p.intField(&r.K)
				case keyIs(key, "select_fraction"):
					return true, p.floatField(&r.SelectFraction)
				}
				return false, nil
			})
		})
		return r, true, err
	case pipelineSVTMechanism:
		r := &PipelineSVTRequest{}
		if scr != nil {
			scr.psvt = PipelineSVTRequest{}
			r = &scr.psvt
		}
		p := jsonParser{data: data, scr: scr}
		err = p.topLevel(func() error {
			return p.requestObject(&r.Common, func(key []byte) (bool, error) {
				switch {
				case keyIs(key, "k"):
					return true, p.intField(&r.K)
				case keyIs(key, "threshold"):
					return true, p.floatField(&r.Threshold)
				case keyIs(key, "select_fraction"):
					return true, p.floatField(&r.SelectFraction)
				case keyIs(key, "adaptive"):
					return true, p.boolField(&r.Adaptive)
				case keyIs(key, "confidence"):
					return true, p.floatField(&r.Confidence)
				}
				return false, nil
			})
		})
		return r, true, err
	default:
		return nil, false, nil
	}
}

// keyIs reports whether an (unescaped) object key matches the lowercase
// field name under encoding/json's case folding: ASCII letters fold
// case-insensitively, and the two special Unicode points the stdlib folds —
// U+017F (ſ → s) and U+212A (K → k) — match their ASCII letters.
func keyIs(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i >= len(key) {
			return false
		}
		c := key[i]
		switch {
		case c == name[j]:
			i++
		case c >= 'A' && c <= 'Z' && c+'a'-'A' == name[j]:
			i++
		case c == 0xC5 && i+1 < len(key) && key[i+1] == 0xBF && name[j] == 's':
			i += 2 // U+017F LATIN SMALL LETTER LONG S
		case c == 0xE2 && i+2 < len(key) && key[i+1] == 0x84 && key[i+2] == 0xAA && name[j] == 'k':
			i += 3 // U+212A KELVIN SIGN
		default:
			return false
		}
	}
	return i == len(key)
}

// bstr views b as a string without copying; the result must not outlive b.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// jsonParser is a strict single-value JSON parser over a complete body.
type jsonParser struct {
	data []byte
	pos  int
	scr  *Scratch // optional buffer donor

	key []byte // reused key scratch when scr == nil
	str []byte // reused string-value scratch when scr == nil
}

func (p *jsonParser) syntaxErr(msg string) error {
	return fmt.Errorf("invalid request JSON at offset %d: %s", p.pos, msg)
}

func (p *jsonParser) skipWS() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *jsonParser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// maybeNull consumes a leading "null" literal, reporting whether it did.
// JSON null leaves primitive targets unchanged but clears slice and pointer
// fields to nil (the caller does the clearing), exactly like encoding/json.
func (p *jsonParser) maybeNull() bool {
	if len(p.data)-p.pos >= 4 && string(p.data[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// topLevel parses the one-and-only top-level value: an object via parseObj,
// or a bare null (a no-op, as encoding/json treats null into a struct
// pointer). It then enforces the serving layer's trailing-value rule, which
// replicates json.Decoder.More exactly: anything after the value is an
// error, except a stray ']' or '}' — More peeks one byte and reports false
// for both, so the stdlib-backed decoder accepted such bodies and this one
// must too.
func (p *jsonParser) topLevel(parseObj func() error) error {
	p.skipWS()
	if p.pos >= len(p.data) {
		return io.EOF
	}
	if p.maybeNull() {
		// Bare null: the request stays zero; validation rejects it later,
		// exactly like the stdlib path.
	} else if err := parseObj(); err != nil {
		return err
	}
	p.skipWS()
	if p.pos < len(p.data) && p.data[p.pos] != ']' && p.data[p.pos] != '}' {
		return ErrTrailingData
	}
	return nil
}

// object parses a JSON object, dispatching each (unescaped, folded) key to
// field; an unhandled key is an unknown-field error, matching
// DisallowUnknownFields.
func (p *jsonParser) object(field func(key []byte) (bool, error)) error {
	p.skipWS()
	if !p.consume('{') {
		return p.syntaxErr("expected an object")
	}
	p.skipWS()
	if p.consume('}') {
		return nil
	}
	for {
		p.skipWS()
		key, err := p.stringContents(p.keyBuf())
		p.setKeyBuf(key)
		if err != nil {
			return err
		}
		p.skipWS()
		if !p.consume(':') {
			return p.syntaxErr("expected ':' after object key")
		}
		p.skipWS()
		handled, err := field(key)
		if err != nil {
			return err
		}
		if !handled {
			return fmt.Errorf("json: unknown field %q", key)
		}
		p.skipWS()
		if p.consume(',') {
			continue
		}
		if p.consume('}') {
			return nil
		}
		return p.syntaxErr("expected ',' or '}' in object")
	}
}

func (p *jsonParser) keyBuf() []byte {
	if p.scr != nil {
		return p.scr.key
	}
	return p.key
}

func (p *jsonParser) setKeyBuf(b []byte) {
	if p.scr != nil {
		p.scr.key = b
	} else {
		p.key = b
	}
}

func (p *jsonParser) strBuf() []byte {
	if p.scr != nil {
		return p.scr.str
	}
	return p.str
}

func (p *jsonParser) setStrBuf(b []byte) {
	if p.scr != nil {
		p.scr.str = b
	} else {
		p.str = b
	}
}

// stringContents parses a JSON string into buf (reused, returned possibly
// regrown), replicating encoding/json's unquoting: the full escape table,
// surrogate-pair decoding with U+FFFD for unpaired halves, U+FFFD for
// invalid UTF-8 bytes, and errors for control characters and bad escapes.
func (p *jsonParser) stringContents(buf []byte) ([]byte, error) {
	d := p.data
	if p.pos >= len(d) || d[p.pos] != '"' {
		return buf, p.syntaxErr("expected a string")
	}
	p.pos++
	buf = buf[:0]
	for p.pos < len(d) {
		c := d[p.pos]
		switch {
		case c == '"':
			p.pos++
			return buf, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(d) {
				return buf, p.syntaxErr("unexpected end of string escape")
			}
			e := d[p.pos]
			p.pos++
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
				r, err := p.hex4()
				if err != nil {
					return buf, err
				}
				if utf16.IsSurrogate(r) {
					// A valid \uXXXX low surrogate immediately after combines
					// into one rune; anything else renders this half as
					// U+FFFD and reprocesses what follows on its own, exactly
					// like the stdlib unquoter.
					if p.pos+6 <= len(d) && d[p.pos] == '\\' && d[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						r2, err := p.hex4()
						if err == nil {
							if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
								buf = utf8.AppendRune(buf, dec)
								continue
							}
						}
						p.pos = save
					}
					buf = utf8.AppendRune(buf, unicode.ReplacementChar)
				} else {
					buf = utf8.AppendRune(buf, r)
				}
			default:
				return buf, p.syntaxErr("invalid escape in string literal")
			}
		case c < 0x20:
			return buf, p.syntaxErr("control character in string literal")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(d[p.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, unicode.ReplacementChar)
				p.pos++
			} else {
				buf = append(buf, d[p.pos:p.pos+size]...)
				p.pos += size
			}
		}
	}
	return buf, p.syntaxErr("unterminated string literal")
}

// hex4 parses four hex digits into a rune.
func (p *jsonParser) hex4() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.syntaxErr("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 + rune(c-'A'+10)
		default:
			return 0, p.syntaxErr("invalid \\u escape")
		}
	}
	p.pos += 4
	return r, nil
}

// numberLit scans one number token under the JSON grammar (no leading
// zeros, no bare '.', mandatory digits after '.', 'e'), returning the
// literal bytes.
func (p *jsonParser) numberLit() ([]byte, error) {
	d := p.data
	start := p.pos
	if p.pos < len(d) && d[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(d) && d[p.pos] == '0':
		p.pos++
	case p.pos < len(d) && d[p.pos] >= '1' && d[p.pos] <= '9':
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			p.pos++
		}
	default:
		return nil, p.syntaxErr("expected a number")
	}
	if p.pos < len(d) && d[p.pos] == '.' {
		p.pos++
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return nil, p.syntaxErr("expected digits after decimal point")
		}
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			p.pos++
		}
	}
	if p.pos < len(d) && (d[p.pos] == 'e' || d[p.pos] == 'E') {
		p.pos++
		if p.pos < len(d) && (d[p.pos] == '+' || d[p.pos] == '-') {
			p.pos++
		}
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return nil, p.syntaxErr("expected digits in exponent")
		}
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			p.pos++
		}
	}
	return d[start:p.pos], nil
}

// floatField parses a number (or null) into f.
func (p *jsonParser) floatField(f *float64) error {
	if p.maybeNull() {
		return nil
	}
	lit, err := p.numberLit()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(bstr(lit), 64)
	if err != nil {
		return fmt.Errorf("cannot unmarshal number %s into a float64", lit)
	}
	*f = v
	return nil
}

// intField parses an integer number (or null) into n; fractions and
// exponents are rejected exactly as encoding/json rejects them for integer
// Go fields.
func (p *jsonParser) intField(n *int) error {
	if p.maybeNull() {
		return nil
	}
	lit, err := p.numberLit()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(bstr(lit), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot unmarshal number %s into an int", lit)
	}
	*n = int(v)
	return nil
}

// boolField parses true/false (or null) into b.
func (p *jsonParser) boolField(b *bool) error {
	switch {
	case p.maybeNull():
		return nil
	case len(p.data)-p.pos >= 4 && string(p.data[p.pos:p.pos+4]) == "true":
		p.pos += 4
		*b = true
		return nil
	case len(p.data)-p.pos >= 5 && string(p.data[p.pos:p.pos+5]) == "false":
		p.pos += 5
		*b = false
		return nil
	default:
		return p.syntaxErr("expected a boolean")
	}
}

// stringField parses a string (or null) into s as a standalone heap string —
// tenant and dataset names are retained by registries past the request's
// lifetime, so they must not alias a pooled buffer.
func (p *jsonParser) stringField(s *string) error {
	if p.maybeNull() {
		return nil
	}
	buf, err := p.stringContents(p.strBuf())
	p.setStrBuf(buf)
	if err != nil {
		return err
	}
	*s = string(buf)
	return nil
}

// floatsValue parses an array of numbers (or null) into the scratch-backed
// answers buffer. An empty array yields an empty non-nil slice and null sets
// the field nil, like encoding/json.
func (p *jsonParser) floatsValue(out *[]float64) error {
	if p.maybeNull() {
		*out = nil
		return nil
	}
	p.skipWS()
	if !p.consume('[') {
		return p.syntaxErr("expected an array of numbers")
	}
	var buf []float64
	if p.scr != nil {
		buf = p.scr.answers
	}
	if buf == nil {
		buf = make([]float64, 0, 16)
	}
	buf = buf[:0]
	defer func() {
		if p.scr != nil {
			p.scr.answers = buf
		}
		*out = buf
	}()
	p.skipWS()
	if p.consume(']') {
		return nil
	}
	for {
		p.skipWS()
		if p.maybeNull() {
			buf = append(buf, 0)
		} else {
			lit, err := p.numberLit()
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(bstr(lit), 64)
			if err != nil {
				return fmt.Errorf("cannot unmarshal number %s into a float64", lit)
			}
			buf = append(buf, v)
		}
		p.skipWS()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxErr("expected ',' or ']' in array")
	}
}

// itemsValue parses an array of int32 item ids (or null) into the
// scratch-backed items buffer; it backs only the root spec's items list, so
// one pooled buffer per request suffices.
func (p *jsonParser) itemsValue(out *[]int32) error {
	if p.maybeNull() {
		*out = nil
		return nil
	}
	p.skipWS()
	if !p.consume('[') {
		return p.syntaxErr("expected an array of item ids")
	}
	var buf []int32
	if p.scr != nil {
		buf = p.scr.items
	}
	if buf == nil {
		buf = make([]int32, 0, 16)
	}
	buf = buf[:0]
	defer func() {
		if p.scr != nil {
			p.scr.items = buf
		}
		*out = buf
	}()
	p.skipWS()
	if p.consume(']') {
		return nil
	}
	for {
		p.skipWS()
		if p.maybeNull() {
			buf = append(buf, 0)
		} else {
			lit, err := p.numberLit()
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(bstr(lit), 10, 64)
			if err != nil || v > math.MaxInt32 || v < math.MinInt32 {
				return fmt.Errorf("cannot unmarshal number %s into an int32", lit)
			}
			buf = append(buf, int32(v))
		}
		p.skipWS()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxErr("expected ',' or ']' in array")
	}
}

// itemsHeap parses an array of int32 item ids (or null) into a heap slice,
// reusing *out's backing array like encoding/json does — nested spec item
// lists cannot share the one pooled items buffer the root spec uses.
func (p *jsonParser) itemsHeap(out *[]int32) error {
	if p.maybeNull() {
		*out = nil
		return nil
	}
	p.skipWS()
	if !p.consume('[') {
		return p.syntaxErr("expected an array of item ids")
	}
	buf := (*out)[:0]
	if buf == nil {
		buf = make([]int32, 0, 8)
	}
	defer func() { *out = buf }()
	p.skipWS()
	if p.consume(']') {
		return nil
	}
	for {
		p.skipWS()
		if p.maybeNull() {
			buf = append(buf, 0)
		} else {
			lit, err := p.numberLit()
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(bstr(lit), 10, 64)
			if err != nil || v > math.MaxInt32 || v < math.MinInt32 {
				return fmt.Errorf("cannot unmarshal number %s into an int32", lit)
			}
			buf = append(buf, int32(v))
		}
		p.skipWS()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxErr("expected ',' or ']' in array")
	}
}

// queriesValue parses the query-spec object (or null) into c.Queries. The
// first occurrence points the field at a freshly reset spec; a duplicate key
// decodes into the same spec without resetting it, and null clears the
// field, replicating encoding/json's pointer behaviour.
func (p *jsonParser) queriesValue(c *Common) error {
	if p.maybeNull() {
		c.Queries = nil
		return nil
	}
	if c.Queries == nil {
		if p.scr != nil {
			p.scr.query = QuerySpec{}
			c.Queries = &p.scr.query
		} else {
			c.Queries = &QuerySpec{}
		}
	}
	return p.specObject(c.Queries, true)
}

// specObject parses one query-spec object into q, merging into whatever q
// already holds (duplicate keys and re-decoded operands behave like
// encoding/json). root marks the request's top-level spec, whose items list
// may borrow the pooled scratch buffer; nested specs allocate on the heap.
func (p *jsonParser) specObject(q *QuerySpec, root bool) error {
	return p.object(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "kind"):
			return true, p.stringKind(&q.Kind)
		case keyIs(key, "items"):
			if root {
				return true, p.itemsValue(&q.Items)
			}
			return true, p.itemsHeap(&q.Items)
		case keyIs(key, "where"):
			return true, p.whereValue(q)
		case keyIs(key, "min_count"):
			return true, p.floatField(&q.MinCount)
		case keyIs(key, "max_count"):
			return true, p.floatField(&q.MaxCount)
		case keyIs(key, "of"):
			return true, p.ofValue(&q.Of)
		case keyIs(key, "dataset"):
			return true, p.stringField(&q.Dataset)
		case keyIs(key, "on"):
			return true, p.specPtrValue(&q.On)
		}
		return false, nil
	})
}

// whereValue parses the record predicate (or null) into q.Where, with the
// same merge/clear pointer semantics as queriesValue.
func (p *jsonParser) whereValue(q *QuerySpec) error {
	if p.maybeNull() {
		q.Where = nil
		return nil
	}
	if q.Where == nil {
		q.Where = &RecordPredicate{}
	}
	w := q.Where
	return p.object(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "contains"):
			return true, p.itemsHeap(&w.Contains)
		case keyIs(key, "min_len"):
			return true, p.intField(&w.MinLen)
		case keyIs(key, "max_len"):
			return true, p.intField(&w.MaxLen)
		}
		return false, nil
	})
}

// specPtrValue parses a nested spec object (or null) into *out, merging into
// an existing spec and clearing on null like encoding/json.
func (p *jsonParser) specPtrValue(out **QuerySpec) error {
	if p.maybeNull() {
		*out = nil
		return nil
	}
	if *out == nil {
		*out = &QuerySpec{}
	}
	return p.specObject(*out, false)
}

// ofValue parses the operand array (or null) into *out with encoding/json's
// array-into-slice semantics: the existing backing array is reused, element
// i merges into the existing *QuerySpec at i (a null element clears it), and
// the slice is truncated to the decoded length.
func (p *jsonParser) ofValue(out *[]*QuerySpec) error {
	if p.maybeNull() {
		*out = nil
		return nil
	}
	p.skipWS()
	if !p.consume('[') {
		return p.syntaxErr("expected an array of query specs")
	}
	old := *out
	buf := old[:0]
	if buf == nil {
		buf = []*QuerySpec{}
	}
	defer func() { *out = buf }()
	p.skipWS()
	if p.consume(']') {
		return nil
	}
	for {
		p.skipWS()
		var el *QuerySpec
		if len(buf) < len(old) {
			el = old[len(buf)]
		}
		if p.maybeNull() {
			el = nil
		} else {
			if el == nil {
				el = &QuerySpec{}
			}
			if err := p.specObject(el, false); err != nil {
				return err
			}
		}
		buf = append(buf, el)
		p.skipWS()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxErr("expected ',' or ']' in array")
	}
}

// stringKind is stringField specialised for QuerySpec.Kind: the known kinds
// assign the package constants, so the common case allocates nothing.
func (p *jsonParser) stringKind(s *string) error {
	if p.maybeNull() {
		return nil
	}
	buf, err := p.stringContents(p.strBuf())
	p.setStrBuf(buf)
	if err != nil {
		return err
	}
	switch bstr(buf) {
	case QueryAllItems:
		*s = QueryAllItems
	case QueryItemCount:
		*s = QueryItemCount
	case QueryFilter:
		*s = QueryFilter
	case QueryThreshold:
		*s = QueryThreshold
	case QueryUnion:
		*s = QueryUnion
	case QueryIntersect:
		*s = QueryIntersect
	case QueryMinus:
		*s = QueryMinus
	case QueryJoin:
		*s = QueryJoin
	default:
		*s = string(buf)
	}
	return nil
}

// commonField dispatches one key against the embedded Common fields.
func (p *jsonParser) commonField(key []byte, c *Common) (bool, error) {
	switch {
	case keyIs(key, "tenant"):
		return true, p.stringField(&c.Tenant)
	case keyIs(key, "epsilon"):
		return true, p.floatField(&c.Epsilon)
	case keyIs(key, "answers"):
		return true, p.floatsValue(&c.Answers)
	case keyIs(key, "monotonic"):
		return true, p.boolField(&c.Monotonic)
	case keyIs(key, "dataset"):
		return true, p.stringField(&c.Dataset)
	case keyIs(key, "queries"):
		return true, p.queriesValue(c)
	}
	return false, nil
}

// requestObject parses the request object: Common fields plus the
// mechanism's own via extra.
func (p *jsonParser) requestObject(c *Common, extra func(key []byte) (bool, error)) error {
	return p.object(func(key []byte) (bool, error) {
		if handled, err := p.commonField(key, c); handled || err != nil {
			return handled, err
		}
		if extra == nil {
			return false, nil
		}
		return extra(key)
	})
}
