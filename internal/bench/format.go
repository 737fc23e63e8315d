package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Format selects the rendering of regenerated tables.
type Format string

const (
	// Text is the aligned fixed-width rendering used by default.
	Text Format = "text"
	// Markdown emits GitHub-style pipe tables (EXPERIMENTS.md-ready).
	Markdown Format = "md"
	// CSV emits comma-separated values for spreadsheets.
	CSV Format = "csv"
)

// ParseFormat validates a format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case Text, Markdown, CSV:
		return Format(s), nil
	default:
		return "", fmt.Errorf("bench: unknown format %q (valid: text, md, csv)", s)
	}
}

// tableWriter renders header + rows in one of the formats.
type tableWriter struct {
	w      io.Writer
	format Format
	widths []int
}

func newTableWriter(w io.Writer, format Format, widths []int) *tableWriter {
	return &tableWriter{w: w, format: format, widths: widths}
}

func (tw *tableWriter) header(cells []string) {
	tw.emit(cells)
	if tw.format == Markdown {
		seps := make([]string, len(cells))
		for i := range seps {
			seps[i] = "---"
		}
		tw.emit(seps)
	}
}

func (tw *tableWriter) emit(cells []string) {
	switch tw.format {
	case Markdown:
		fmt.Fprintf(tw.w, "| %s |\n", strings.Join(cells, " | "))
	case CSV:
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		fmt.Fprintln(tw.w, strings.Join(quoted, ","))
	default:
		for i, c := range cells {
			w := 10
			if i < len(tw.widths) {
				w = tw.widths[i]
			}
			// Pad by runes, not bytes, so a header like ΣK lines up.
			pad := strings.Repeat(" ", max(w-utf8.RuneCountInString(c), 0))
			if i == 0 {
				fmt.Fprint(tw.w, c, pad)
			} else {
				fmt.Fprint(tw.w, " ", pad, c)
			}
		}
		fmt.Fprintln(tw.w)
	}
}
