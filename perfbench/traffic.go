package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/dataset"
	"polygraph/internal/fingerprint"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

// verdict is the part of a decision the oracle pins.
type verdict struct {
	Cluster    int
	RiskFactor int
	Flagged    bool
	Matched    bool
}

// request is one pre-encoded login collection and its oracle verdict.
// Everything the wire carries is built before timing starts.
type request struct {
	sessionID [fingerprint.SessionIDSize]byte
	path      string // collect.EndpointBinary or collect.EndpointJSON
	head      []byte // Content-Type and Content-Length header lines
	body      []byte
	binary    []byte // the binary payload, also used for TCP frames
	userAgent string
	vector    []float64
	want      verdict
}

// trafficSeed keeps the workload's sessions apart from the server's
// training draw (dataset seed 2023) for every benchmark seed.
func trafficSeed(seed uint64) uint64 { return 1<<40 | seed }

// trafficConfig is the FinOrg traffic model for one workload: the
// training window for login traffic, or the §7.3 drift window with
// releases up to version 119 for the stale-model day.
func trafficConfig(seed uint64, sessions int, drift bool) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = sessions
	cfg.Seed = trafficSeed(seed)
	if drift {
		cfg.Window = dataset.DriftWindow
		cfg.MaxVersion = 119
	}
	return cfg
}

// trainOracle retrains, in this process, the model the server trains
// at start-up: same sessions, seed and configuration as
// serving.ObtainModel with polygraphd's defaults.
func trainOracle(ctx context.Context) (*core.Model, *core.TrainReport, float64, error) {
	cfg := dataset.DefaultConfig()
	cfg.Sessions = trainSessions
	if cfg.Seed != serverSeed {
		return nil, nil, 0, fmt.Errorf("dataset default seed %d, want %d", cfg.Seed, serverSeed)
	}
	start := time.Now()
	traffic, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	genMs := float64(time.Since(start).Nanoseconds()) / 1e6
	tc := core.DefaultTrainConfig()
	tc.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	m, rep, err := core.TrainContext(ctx, traffic.Samples(), tc)
	return m, rep, genMs, err
}

// buildRequests encodes the first n sessions of traffic, a jsonShare of
// them as JSON bodies and the rest binary, and records the oracle's
// verdict for each.
func buildRequests(traffic *dataset.Dataset, n int, oracle *core.Model, jsonShare float64) ([]request, error) {
	gen := rng.New(traffic.Config.Seed ^ 0x6a736f6e) // endpoint choice, its own stream
	scratch := oracle.NewScratch()
	out := make([]request, min(n, len(traffic.Sessions)))
	for i, s := range traffic.Sessions[:len(out)] {
		p := fingerprint.Payload{SessionID: s.ID, UserAgent: s.UAString, Values: fingerprint.VectorToValues(s.Vector)}
		bin, err := p.MarshalBinary()
		if err != nil {
			return nil, err
		}
		vec := fingerprint.ValuesToVector(p.Values)
		res, err := oracle.ScoreStringWith(scratch, vec, p.UserAgent)
		if err != nil {
			return nil, err
		}
		r := request{
			sessionID: s.ID,
			path:      collect.EndpointBinary,
			body:      bin,
			binary:    bin,
			userAgent: p.UserAgent,
			vector:    vec,
			want:      verdict{Cluster: res.Cluster, RiskFactor: res.RiskFactor, Flagged: res.Flagged(), Matched: res.Matched},
		}
		if gen.Bool(jsonShare) {
			r.path = collect.EndpointJSON
			r.body, err = json.Marshal(struct {
				SessionID string  `json:"sid"`
				UserAgent string  `json:"ua"`
				Values    []int64 `json:"v"`
			}{hex.EncodeToString(s.ID[:]), p.UserAgent, p.Values})
			if err != nil {
				return nil, err
			}
		}
		ctype := "application/octet-stream"
		if r.path == collect.EndpointJSON {
			ctype = "application/json"
		}
		r.head = fmt.Appendf(nil, "Content-Type: %s\r\nContent-Length: %d\r\n", ctype, len(r.body))
		out[i] = r
	}
	return out, nil
}

// flagShare is the share of requests the oracle flags.
func flagShare(reqs []request) float64 {
	n := 0
	for i := range reqs {
		if reqs[i].want.Flagged {
			n++
		}
	}
	return float64(n) / float64(len(reqs))
}

// httpDecision is the subset of collect.Decision the oracle checks.
type httpDecision struct {
	SessionID  string `json:"session_id"`
	Cluster    int    `json:"cluster"`
	Matched    bool   `json:"matched"`
	RiskFactor int    `json:"risk_factor"`
	Flagged    bool   `json:"flagged"`
}

// checkHTTP compares a decoded HTTP decision with the oracle.
func (r *request) checkHTTP(d *httpDecision) error {
	got := verdict{Cluster: d.Cluster, RiskFactor: d.RiskFactor, Flagged: d.Flagged, Matched: d.Matched}
	if got != r.want {
		return fmt.Errorf("session %x: got %+v, oracle %+v", r.sessionID, got, r.want)
	}
	if d.SessionID != hex.EncodeToString(r.sessionID[:]) {
		return fmt.Errorf("session %x: reply names session %s", r.sessionID, d.SessionID)
	}
	return nil
}

// TCP reply layout (internal/collect/tcp.go): sessionID[16] | uint16
// cluster | uint16 riskFactor | uint8 flags.
const (
	tcpHello     = "bPT1"
	tcpReplySize = fingerprint.SessionIDSize + 5
	tcpFlagFlag  = 1 << 0
	tcpFlagMatch = 1 << 1
	tcpFlagError = 1 << 7
	tcpBlockSize = 64
)

// appendFrame appends one length-prefixed TCP request frame.
func appendFrame(dst []byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// checkTCP compares one reply frame with the oracle. It reports
// whether the server set the error flag.
func (r *request) checkTCP(reply []byte) (errFlag bool, err error) {
	flags := reply[tcpReplySize-1]
	if flags&tcpFlagError != 0 {
		return true, fmt.Errorf("session %x: error-flag reply", r.sessionID)
	}
	got := verdict{
		Cluster:    int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize:])),
		RiskFactor: int(binary.BigEndian.Uint16(reply[fingerprint.SessionIDSize+2:])),
		Flagged:    flags&tcpFlagFlag != 0,
		Matched:    flags&tcpFlagMatch != 0,
	}
	if string(reply[:fingerprint.SessionIDSize]) != string(r.sessionID[:]) {
		return false, fmt.Errorf("session %x: reply for session %x", r.sessionID, reply[:fingerprint.SessionIDSize])
	}
	if got != r.want {
		return false, fmt.Errorf("session %x: got %+v, oracle %+v", r.sessionID, got, r.want)
	}
	return false, nil
}
