package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// WireError is a non-2xx answer from a serve endpoint as its caller sees
// it: the exact inverse of statusFor. The status alone decides which
// sentinel errors.Is reports and whether the call is worth retrying, so a
// peer that answers without the envelope (a proxy's 404 page, an old
// backend) is classified the same way as one that does. Code and Message
// come from the envelope when the body is one; otherwise Code is empty and
// Message is the trimmed body.
type WireError struct {
	Status int
	ErrorBody
}

func (e *WireError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Message) }

// Call is the client half of the wire: one JSON round trip. A non-nil in
// is sent as the JSON body, header carries extras (traceparent), and a 2xx
// body is decoded into a non-nil out. A non-2xx answer is a *WireError; a
// transport failure or an undecodable 2xx body is a plain error — the peer
// misbehaved, the request was not judged.
//
// The load generator (internal/loadgen) does not use Call: it is a conformance
// checker that must see raw bodies and the echoed traceparent.
func Call(ctx context.Context, client *http.Client, method, url string, header http.Header, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		eb, ok := ParseErrorEnvelope(payload)
		if !ok {
			msg := bytes.TrimSpace(payload)
			if len(msg) > 200 {
				msg = append(msg[:200:200], "…"...)
			}
			eb = ErrorBody{Message: string(msg)}
		}
		eb.Retryable = ErrorRetryable(resp.StatusCode)
		return &WireError{Status: resp.StatusCode, ErrorBody: eb}
	}
	if err != nil {
		return fmt.Errorf("read response body: %w", err)
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("bad response body: %w", err)
		}
	}
	return nil
}
