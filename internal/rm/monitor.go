package rm

import (
	"fmt"
	"strings"
)

// RenderMonitor draws the request's state as the text analog of the
// paper's Figure 4 transfer-monitoring tool: a progress bar per file (top
// pane), the chosen replica locations (middle pane), and the running
// message log (bottom pane).
func RenderMonitor(r *Request, width int) string {
	if width < 40 {
		width = 40
	}
	barW := width - 34
	var b strings.Builder
	statuses := r.Status()
	var total, got int64
	fmt.Fprintf(&b, "Request %d (%s) — collection %q\n", r.ID, r.User, r.Collection)
	b.WriteString(strings.Repeat("=", width) + "\n")
	for _, st := range statuses {
		frac := 0.0
		if st.Size > 0 {
			frac = float64(st.Received) / float64(st.Size)
		}
		fill := int(frac * float64(barW))
		if fill > barW {
			fill = barW
		}
		fmt.Fprintf(&b, "%-24.24s [%s%s] %5.1f%%\n",
			st.Name, strings.Repeat("#", fill), strings.Repeat(".", barW-fill), frac*100)
		total += st.Size
		got += st.Received
	}
	if total > 0 {
		fmt.Fprintf(&b, "TOTAL: %.1f of %.1f MB (%.1f%%)\n",
			float64(got)/1e6, float64(total)/1e6, 100*float64(got)/float64(total))
	}
	b.WriteString(strings.Repeat("-", width) + "\n")
	b.WriteString("replica selections:\n")
	for _, st := range statuses {
		if st.Replica != "" {
			fmt.Fprintf(&b, "  %-24.24s <- %s  (%s, attempt %d, %.1f Mb/s)\n",
				st.Name, st.Replica, st.State, st.Attempts, st.RateBps/1e6)
		}
	}
	b.WriteString(strings.Repeat("-", width) + "\n")
	msgs := r.Messages()
	const tail = 8
	if len(msgs) > tail {
		msgs = msgs[len(msgs)-tail:]
	}
	for _, msg := range msgs {
		fmt.Fprintf(&b, "%s\n", msg)
	}
	return b.String()
}
