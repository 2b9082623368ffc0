package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestCrossCheckPositiveControls feeds both cross-checks hand-written
// pre- and post-run expositions. The client ledger below saw 10 ok
// responses (3 flagged) and 2 errors; a server whose counters moved by
// exactly that reconciles, and a server off by one on any counter, or
// one whose pre-run scrape failed, must not.
func TestCrossCheckPositiveControls(t *testing.T) {
	httpExpo := func(received, flagged, rejected int) scrape {
		return scrape{text: fmt.Sprintf(
			"%s %d\n%s %d\n%s{reason=\"decode\"} %d\n%s{reason=\"bad_json\"} 1\n",
			receivedFamily, received, flaggedFamily, flagged, rejectedFamily, rejected-1, rejectedFamily)}
	}
	tcpExpo := func(scored, flagged, bad int) scrape {
		return scrape{text: fmt.Sprintf("%s %d\n%s %d\n%s %d\n",
			tcpScoredFamily, scored, tcpFlaggedFamily, flagged, tcpBadFramesFamily, bad)}
	}
	failed := scrape{err: errors.New("connection refused")}

	cases := []struct {
		name       string
		tcp        bool
		pre, post  scrape
		wantOK     bool
		wantDetail string
	}{
		{"http match", false, httpExpo(100, 7, 5), httpExpo(110, 10, 7), true, ""},
		{"http received off by one", false, httpExpo(100, 7, 5), httpExpo(111, 10, 7), false, receivedFamily},
		{"http flagged off by one", false, httpExpo(100, 7, 5), httpExpo(110, 11, 7), false, flaggedFamily},
		{"http rejected off by one", false, httpExpo(100, 7, 5), httpExpo(110, 10, 8), false, rejectedFamily},
		{"http pre-run scrape failed", false, failed, httpExpo(110, 10, 7), false, "pre-run"},
		{"http pre-run family missing", false, scrape{text: receivedFamily + " 100\n"}, httpExpo(110, 10, 7), false, "pre-run"},
		{"http post-run scrape failed", false, httpExpo(100, 7, 5), failed, false, "post-run"},
		{"tcp match", true, tcpExpo(100, 7, 5), tcpExpo(110, 10, 7), true, ""},
		{"tcp scored off by one", true, tcpExpo(100, 7, 5), tcpExpo(109, 10, 7), false, tcpScoredFamily},
		{"tcp flagged off by one", true, tcpExpo(100, 7, 5), tcpExpo(110, 9, 7), false, tcpFlaggedFamily},
		{"tcp bad frames off by one", true, tcpExpo(100, 7, 5), tcpExpo(110, 10, 6), false, tcpBadFramesFamily},
		{"tcp pre-run scrape failed", true, failed, tcpExpo(110, 10, 7), false, "pre-run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ledger := &Ledger{ByStatus: map[string]int64{"200": 10, "400": 2}, Flagged: 3}
			var cc *CrossCheck
			if c.tcp {
				cc = crossCheckTCP(c.pre, c.post, ledger, false)
			} else {
				srcs := []metricsSource{{name: "server"}}
				cc = crossCheck(srcs, []scrape{c.pre}, []scrape{c.post}, ledger, 0)
			}
			if cc.OK != c.wantOK {
				t.Fatalf("OK = %v, want %v; details %q", cc.OK, c.wantOK, cc.Details)
			}
			if c.wantOK {
				if len(cc.Details) != 0 {
					t.Fatalf("reconciled run carries details %q", cc.Details)
				}
				return
			}
			if len(cc.Details) == 0 || !strings.Contains(strings.Join(cc.Details, "; "), c.wantDetail) {
				t.Fatalf("details %q do not name %q", cc.Details, c.wantDetail)
			}
		})
	}
}
