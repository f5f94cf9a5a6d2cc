// Package metrics renders and validates the Prometheus text exposition
// format (version 0.0.4) with no dependencies — the observability half of
// the capture-to-verdict edge. The repo's rule is that operational truth
// lives in counters the pipeline already keeps (GatewayStats per gateway
// and per lane, flow-table stats, per-rule counters); this package only formats a
// snapshot of them, so scraping costs one snapshot and one buffer render,
// and nothing here touches the packet hot path.
//
// The Validate half is a strict parser for the same format. It exists so
// the scrape-under-load race test and the sensor's self-scrape can assert
// "this is well-formed Prometheus text" without importing a Prometheus
// client: every HELP/TYPE/sample line is checked, including label escaping
// and sample-to-TYPE consistency.
package metrics

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Content-Type a /metrics response must carry for the
// text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Writer renders one exposition. Typical use: declare each metric family
// with Metric, emit its samples with Sample, then hand Bytes to the
// response. A Writer is single-use and not safe for concurrent use; build
// a fresh one per scrape (the snapshot it renders is point-in-time anyway).
type Writer struct {
	buf  bytes.Buffer
	name string // current family, for bare Sample calls
}

// Metric opens a metric family: it writes the # HELP and # TYPE comments.
// typ is "counter" or "gauge". Subsequent Sample calls emit samples of
// this family until the next Metric call.
func (w *Writer) Metric(name, typ, help string) {
	w.name = name
	w.buf.WriteString("# HELP ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(escapeHelp(help))
	w.buf.WriteString("\n# TYPE ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(typ)
	w.buf.WriteByte('\n')
}

// Sample emits one sample of the current family.
func (w *Writer) Sample(value float64, labels ...Label) {
	w.buf.WriteString(w.name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(l.Name)
			w.buf.WriteString(`="`)
			w.buf.WriteString(escapeLabel(l.Value))
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatValue(value))
	w.buf.WriteByte('\n')
}

// Bytes returns the rendered exposition.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// WriteTo writes the rendered exposition to out.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	n, err := out.Write(w.buf.Bytes())
	return int64(n), err
}

// formatValue renders a sample value: integers without an exponent or
// decimal point (counters read naturally), everything else in Go's
// shortest-roundtrip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// escapeLabel escapes a label value: backslash, double-quote and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Handler serves an exposition rendered per request by render. The
// response carries the exposition Content-Type, and GET/HEAD are the only
// accepted methods — the endpoint is a read-only scrape surface.
func Handler(render func(w *Writer)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			rw.Header().Set("Allow", "GET, HEAD")
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var w Writer
		render(&w)
		rw.Header().Set("Content-Type", ContentType)
		if req.Method == http.MethodHead {
			return
		}
		rw.Write(w.Bytes())
	})
}

// Healthz adapts a liveness check to an HTTP health endpoint: 200 when the
// check reports ok, 503 otherwise, with the check's body (typically a JSON
// snapshot) either way. check runs per request, so the probe always sees a
// fresh reading; mount it at /healthz next to the /metrics Handler.
func Healthz(check func() (ok bool, body []byte)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			rw.Header().Set("Allow", "GET, HEAD")
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ok, body := check()
		rw.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !ok {
			rw.WriteHeader(http.StatusServiceUnavailable)
		}
		if req.Method == http.MethodHead {
			return
		}
		rw.Write(body)
	})
}
