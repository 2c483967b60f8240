package analysis

import (
	"go/ast"
	"go/constant"
	"sort"
	"strconv"
	"strings"
)

// errHelpers are the sanctioned response writers. httpError and
// writeJSON take the status as their second argument; writeShed is the
// 429 contract (status fixed inside); writeError maps typed errors to
// statuses, each written as a constant through httpError/writeJSON so
// this analyzer checks every one. Their own bodies are the one place
// WriteHeader may be called.
var errHelpers = map[string]bool{
	"httpError":  true,
	"writeJSON":  true,
	"writeShed":  true,
	"writeError": true,
}

// documentedStatuses is the per-endpoint error vocabulary README.md and
// ARCHITECTURE.md document for the whole stack: 400 (bad request), 404
// (endpoint not served in this deployment shape), 405 (method), 409
// (update conflict), 413 (body too large), 421 (misrouted vertex), 429
// (shed, via writeShed), 500 (internal expansion failure), 502 (cluster
// partial failure), 503 (no live replica). An error status outside this
// set is an undocumented contract change, not a new feature.
var documentedStatuses = map[int64]bool{
	400: true, 404: true, 405: true, 409: true, 413: true,
	421: true, 429: true, 500: true, 502: true, 503: true,
}

// Errcontract enforces the JSON error contract in handler-bearing
// files — every non-test file of the package that imports net/http, so
// a new handler file cannot escape it by its name: no naked http.Error (it writes text/plain, breaking every
// client that decodes the documented {"error": ...} body), no direct
// WriteHeader with an error status outside the helpers, and no error
// status outside the documented per-endpoint sets.
var Errcontract = &Analyzer{
	Name: "errcontract",
	Doc: "handler files (those importing net/http) must emit errors through httpError/writeJSON/writeShed/writeError with " +
		"documented status codes (400/404/405/409/413/421/429/500/502/503); naked http.Error and " +
		"WriteHeader(4xx/5xx) bypass the JSON error contract",
	AppliesTo: func(rel string) bool { return rel == "" },
	Run:       runErrcontract,
}

func runErrcontract(pass *Pass) error {
	for _, f := range pass.Files {
		if localImportName(f, "net/http") == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pass.pkgCall(f, call, "net/http"); ok && name == "Error" {
				pass.Reportf(call.Pos(),
					"use httpError(w, code, msg) — clients decode the documented JSON {\"error\": ...} body",
					"naked http.Error bypasses the JSON error contract")
				return true
			}
			switch callee := calleeName(call); {
			case callee == "WriteHeader":
				if errHelpers[enclosingFunc(f, call.Pos())] {
					return true
				}
				if code, ok := pass.constStatus(call, 0); ok && code >= 400 {
					pass.Reportf(call.Pos(),
						"route the error through httpError/writeJSON so the body follows the JSON contract",
						"direct WriteHeader(%d) outside the error helpers", code)
				}
			case callee == "httpError" || callee == "writeJSON":
				if code, ok := pass.constStatus(call, 1); ok && code >= 400 && !documentedStatuses[code] {
					pass.Reportf(call.Pos(),
						"document the new status in README.md/ARCHITECTURE.md and add it to errcontract's set, or use a documented one",
						"undocumented error status %d", code)
				}
			}
			return true
		})
	}
	return nil
}

// calleeName returns the called function's bare name for plain and
// selector calls.
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// constStatus evaluates call argument arg as a constant int when type
// information can prove it one, with a syntactic fallback for integer
// literals and http.StatusXxx selectors.
func (p *Pass) constStatus(call *ast.CallExpr, arg int) (int64, bool) {
	if arg >= len(call.Args) {
		return 0, false
	}
	e := unparen(call.Args[arg])
	if tv, ok := p.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, ok := constant.Int64Val(tv.Value); ok {
			return v, true
		}
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		if v, err := strconv.ParseInt(e.Value, 10, 64); err == nil {
			return v, true
		}
	case *ast.SelectorExpr:
		if base, ok := e.X.(*ast.Ident); ok && base.Name == "http" {
			if v, ok := httpStatusByName[e.Sel.Name]; ok {
				return v, true
			}
		}
	}
	return 0, false
}

// httpStatusByName resolves the net/http status constants used without
// type information (test-file fixtures). Only the ones that can appear
// in this codebase's responses are listed; an unknown name simply
// fails constant evaluation.
var httpStatusByName = map[string]int64{
	"StatusOK":                    200,
	"StatusBadRequest":            400,
	"StatusUnauthorized":          401,
	"StatusForbidden":             403,
	"StatusNotFound":              404,
	"StatusMethodNotAllowed":      405,
	"StatusConflict":              409,
	"StatusGone":                  410,
	"StatusRequestEntityTooLarge": 413,
	"StatusTeapot":                418,
	"StatusMisdirectedRequest":    421,
	"StatusTooManyRequests":       429,
	"StatusInternalServerError":   500,
	"StatusNotImplemented":        501,
	"StatusBadGateway":            502,
	"StatusServiceUnavailable":    503,
}

// DocumentedStatusList renders the contract set for docs and tests.
func DocumentedStatusList() string {
	codes := make([]int, 0, len(documentedStatuses))
	for c := range documentedStatuses {
		codes = append(codes, int(c))
	}
	sort.Ints(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, "/")
}
