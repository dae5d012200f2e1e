package server

// Hand-rolled JSON encoders for the serving layer's own response shapes —
// error envelopes, ?trace=1 breakdowns and the batch response — built on the
// engine's append-style codec primitives. Together with engine.AppendResponse
// they keep the steady-state hot path free of reflection-based encoding:
// every response is appended into a pooled buffer and written once. Output is
// byte-identical to encoding/json (pinned by TestServerCodecGolden).

import (
	"strconv"

	"github.com/freegap/freegap/internal/engine"
)

// appendErrorBody appends body as a JSON object, byte-identical to
// json.Marshal(body). The remaining pointer is always finite (it is a budget),
// so no error return is needed; a non-finite value would have been rejected
// upstream, but the float append still falls back defensively.
func appendErrorBody(dst []byte, body *ErrorBody) ([]byte, bool) {
	dst = append(dst, `{"code":`...)
	dst = engine.AppendString(dst, body.Code)
	if body.RequestID != "" {
		dst = append(dst, `,"request_id":`...)
		dst = engine.AppendString(dst, body.RequestID)
	}
	dst = append(dst, `,"message":`...)
	dst = engine.AppendString(dst, body.Message)
	if body.Remaining != nil {
		dst = append(dst, `,"remaining":`...)
		var err error
		if dst, err = engine.AppendFloat(dst, *body.Remaining); err != nil {
			return dst, false
		}
	}
	if body.Exhausted != nil {
		dst = append(dst, `,"exhausted":`...)
		dst = strconv.AppendBool(dst, *body.Exhausted)
	}
	return append(dst, '}'), true
}

// appendErrorEnvelope appends the ErrorEnvelope wrapping body, byte-identical
// to json.Marshal(ErrorEnvelope{Error: body}), without a trailing newline.
func appendErrorEnvelope(dst []byte, body *ErrorBody) ([]byte, bool) {
	dst = append(dst, `{"error":`...)
	dst, ok := appendErrorBody(dst, body)
	if !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// appendTraceJSON appends tr, byte-identical to json.Marshal(tr). It reports
// false only for a non-finite float, which stage durations (whole
// nanoseconds) never are, so the handlers ignore the boolean.
func appendTraceJSON(dst []byte, tr *TraceJSON) ([]byte, bool) {
	var err error
	dst = append(dst, `{"request_id":`...)
	dst = engine.AppendString(dst, tr.RequestID)
	dst = append(dst, `,"total_us":`...)
	if dst, err = engine.AppendFloat(dst, tr.TotalMicros); err != nil {
		return dst, false
	}
	dst = append(dst, `,"stages":`...)
	if tr.Stages == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range tr.Stages {
			st := &tr.Stages[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = engine.AppendString(dst, st.Name)
			dst = append(dst, `,"start_us":`...)
			if dst, err = engine.AppendFloat(dst, st.StartMicros); err != nil {
				return dst, false
			}
			dst = append(dst, `,"us":`...)
			if dst, err = engine.AppendFloat(dst, st.Micros); err != nil {
				return dst, false
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

// appendBatchResponse appends resp without its Trace field, byte-identical
// to json.Marshal of the trace-less response, without a trailing newline.
// An item response holding a float JSON cannot represent becomes, in resp
// and on the wire, an internal_error for that item alone. The returned
// boolean is false when some value has no encoding at all: an item response
// without an engine codec, or a non-finite batch total. Because Trace is the
// struct's last field, a ?trace=1 caller splices it by appending
// `,"trace":...` before the final '}'.
func appendBatchResponse(dst []byte, resp *BatchResponse) ([]byte, bool) {
	var err error
	dst = append(dst, `{"tenant":`...)
	dst = engine.AppendString(dst, resp.Tenant)
	dst = append(dst, `,"results":`...)
	if resp.Results == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Results {
			res := &resp.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"mechanism":`...)
			dst = engine.AppendString(dst, res.Mechanism)
			if res.Response != nil {
				eresp, ok := res.Response.(engine.Response)
				if !ok {
					return dst, false
				}
				start := len(dst)
				dst = append(dst, `,"response":`...)
				var encOK bool
				if dst, _, encOK, err = engine.AppendResponse(dst, eresp); !encOK {
					return dst, false
				}
				if err != nil {
					dst = dst[:start]
					res.Response = nil
					res.Error = &ErrorBody{Code: CodeInternal, Message: err.Error()}
				}
			}
			if res.Error != nil {
				dst = append(dst, `,"error":`...)
				var ok bool
				if dst, ok = appendErrorBody(dst, res.Error); !ok {
					return dst, false
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"epsilon_spent":`...)
	if dst, err = engine.AppendFloat(dst, resp.EpsilonSpent); err != nil {
		return dst, false
	}
	dst = append(dst, `,"budget_remaining":`...)
	if dst, err = engine.AppendFloat(dst, resp.BudgetRemaining); err != nil {
		return dst, false
	}
	return append(dst, '}'), true
}
