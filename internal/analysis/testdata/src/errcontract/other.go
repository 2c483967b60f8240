package errcontract

// other.go does not import net/http, so it is not a handler file and
// the JSON error contract does not apply: the status-shaped call below
// goes to a recorder of its own, not to an http.ResponseWriter, and is
// not flagged.
type recorder struct{ code int }

func (r *recorder) WriteHeader(code int) { r.code = code }

func elsewhere(r *recorder) {
	r.WriteHeader(500)
}
