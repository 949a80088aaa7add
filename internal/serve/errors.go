package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// ErrorEnvelope is the one error body this surface speaks (the /metrics.json
// scrape, which obs mounts, aside): a versioned JSON envelope instead of
// ad-hoc text, so clients, the cluster router, and the load generator can
// branch on a stable machine-readable code.
//
//	{"error": {"code": "not_found", "message": "...", "retryable": false}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload inside the envelope. Code is one of the
// Code* constants; Retryable tells the caller whether the same
// request may succeed later or on a replica (shed load, drains,
// timeouts, backend 5xx) or can never succeed as written (bad keys,
// unknown keys, malformed bodies).
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// Stable error codes, one per status the serving tier emits.
const (
	CodeBadRequest       = "bad_request"        // 400
	CodeNotFound         = "not_found"          // 404
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeOverloaded       = "overloaded"         // 429
	CodeCanceled         = "canceled"           // 499
	CodeInternal         = "internal"           // 500
	CodeUpstream         = "upstream"           // 502
	CodeUnavailable      = "unavailable"        // 503 (draining / no healthy backends)
	CodeTimeout          = "timeout"            // 504
)

// wireStatus is one row of the wire's error vocabulary. cause is the error
// statusFor maps to the status (nil: the status exists only at the HTTP
// layer); sentinel marks the causes that are serve's own and so survive the
// wire (WireError.Is) — a peer's 504 or 499 is about its context, not the
// caller's.
type wireStatus struct {
	status    int
	code      string
	retryable bool
	cause     error
	sentinel  bool
}

// wireStatuses is the one table behind statusFor, ErrorCode, ErrorRetryable
// and WireError.Is. Malformed keys are a 400 (no resolver anywhere can serve
// them), unknown keys a 404, shed load a 429, a draining server a 503,
// deadlines a 504, a client that went away 499 (nginx's convention; net/http
// has no name for it), everything else a 502 from the adaptation backend.
// Shed load, drains, timeouts and backend failures are worth retrying, here
// or on a replica; 4xx and 499 are not. Causes are matched in row order.
var wireStatuses = [...]wireStatus{
	{http.StatusBadRequest, CodeBadRequest, false, ErrBadKey, true},
	{http.StatusNotFound, CodeNotFound, false, ErrUnknownKey, true},
	{http.StatusTooManyRequests, CodeOverloaded, true, ErrOverloaded, true},
	{http.StatusServiceUnavailable, CodeUnavailable, true, ErrDraining, true},
	{http.StatusGatewayTimeout, CodeTimeout, true, context.DeadlineExceeded, false},
	{499, CodeCanceled, false, context.Canceled, false},
	{http.StatusMethodNotAllowed, CodeMethodNotAllowed, false, nil, false},
	{http.StatusInternalServerError, CodeInternal, true, nil, false},
	{http.StatusBadGateway, CodeUpstream, true, nil, false},
}

// statusRow finds a status in the table. One outside it reads as the
// catch-all of its class: 502 for a 5xx, 400 for anything else.
func statusRow(status int) *wireStatus {
	for i := range wireStatuses {
		if wireStatuses[i].status == status {
			return &wireStatuses[i]
		}
	}
	if status >= 500 {
		return statusRow(http.StatusBadGateway)
	}
	return statusRow(http.StatusBadRequest)
}

// statusFor maps a resolver/transfer error to its HTTP status.
func statusFor(err error) int {
	for i := range wireStatuses {
		if row := &wireStatuses[i]; row.cause != nil && errors.Is(err, row.cause) {
			return row.status
		}
	}
	return http.StatusBadGateway
}

// ErrorCode maps an HTTP status to its envelope code.
func ErrorCode(status int) string { return statusRow(status).code }

// ErrorRetryable reports whether a status is worth retrying.
func ErrorRetryable(status int) bool { return statusRow(status).retryable }

// Retryable is ErrorRetryable for an error that has not crossed the wire
// yet, or has (*WireError): the one retry rule of routers and bulk jobs.
func Retryable(err error) bool { return ErrorRetryable(statusFor(err)) }

// Is maps the status back to the sentinel statusFor mapped from.
func (e *WireError) Is(target error) bool {
	row := statusRow(e.Status)
	return row.status == e.Status && row.sentinel && target == row.cause
}

// WriteJSON renders one JSON response. Exported so packages extending the
// /v1 surface through Handle (internal/jobs) emit the same shapes as the
// built-in routes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError renders err under its statusFor mapping in the versioned
// envelope. Shed responses (429/503) carry a Retry-After so well-behaved
// clients and the cluster router back off instead of hammering a server
// that said "not now".
func WriteError(w http.ResponseWriter, err error) {
	WriteErrorStatus(w, statusFor(err), err.Error())
}

// WriteErrorStatus renders the envelope for an explicit status — the path
// for errors that exist only at the HTTP layer (405s, malformed bodies)
// and have no sentinel error behind them.
func WriteErrorStatus(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:      ErrorCode(status),
		Message:   msg,
		Retryable: ErrorRetryable(status),
	}})
}

// ParseErrorEnvelope decodes an error payload if it is the versioned
// envelope. Callers (Call, the load generator) use it to surface the
// code and message instead of a raw byte dump.
func ParseErrorEnvelope(payload []byte) (ErrorBody, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Error.Code == "" {
		return ErrorBody{}, false
	}
	return env.Error, true
}
