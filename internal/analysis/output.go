package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// JSONDiagnostic is the machine-readable rendering of one finding —
// the -json contract CI artifacts are built from. Paths are
// module-relative so the artifact diffs cleanly across checkouts.
type JSONDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// JSONReport is the top-level -json document.
type JSONReport struct {
	Diagnostics []JSONDiagnostic `json:"diagnostics"`
	Count       int              `json:"count"`
}

// WriteJSON renders diags (already sorted) as an indented JSON report.
func WriteJSON(w io.Writer, root string, diags []Diagnostic) error {
	report := JSONReport{Diagnostics: make([]JSONDiagnostic, 0, len(diags)), Count: len(diags)}
	for _, d := range diags {
		report.Diagnostics = append(report.Diagnostics, JSONDiagnostic{
			File:     RelPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Severity: severityOrDefault(d.Severity),
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func severityOrDefault(s Severity) Severity {
	if s == "" {
		return SeverityError
	}
	return s
}

// RelPath renders path module-relative with forward slashes, or
// returns it unchanged when it lies outside root.
func RelPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}
