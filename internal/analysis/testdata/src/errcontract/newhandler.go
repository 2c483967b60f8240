package errcontract

import "net/http"

// newhandler.go is named in no list anywhere: importing net/http is what
// makes it a handler file, so the contract binds it like serve.go.
func added(w http.ResponseWriter) {
	http.Error(w, "plain text", http.StatusBadRequest) // want "naked http.Error"
	httpError(w, http.StatusGone, "undocumented")      // want "undocumented error status 410"
}
