// Package errcontract exercises the errcontract analyzer. The contract
// binds every file that imports net/http: this one and newhandler.go,
// but not other.go.
package errcontract

import "net/http"

type errBody struct {
	Error string `json:"error"`
}

// httpError is the sanctioned JSON error writer: its body is the one
// place WriteHeader may run.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(`{"error":"` + msg + `"}`))
}

// writeJSON is the sanctioned success/error body writer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.WriteHeader(code)
	_ = v
}

func handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "nope", http.StatusMethodNotAllowed) // want "naked http.Error"
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable) // want "direct WriteHeader"
	w.WriteHeader(http.StatusOK)                 // success statuses are not the contract's business
}

func statuses(w http.ResponseWriter) {
	httpError(w, http.StatusNotFound, "documented")
	httpError(w, http.StatusTeapot, "undocumented") // want "undocumented error status 418"
	writeJSON(w, 502, errBody{})
	writeJSON(w, 451, errBody{}) // want "undocumented error status 451"
}
