package fleet

import (
	"context"
	"fmt"
	"net/http"

	"polygraph/internal/bundle"
)

// Fleet-wide support-bundle capture: the balancer knows every replica —
// including ones already ejected or drained — so it is the natural
// place to enumerate capture targets. The adapter reuses the member's
// /metrics override, which lets an in-process rig snapshot the /metrics
// of a replica whose listener is gone; everything else falls back to
// HTTP against BaseURL and surfaces as recorded collector errors when
// the replica is dead.

// BundleTarget adapts one member for bundle.Capture.
func (m Member) BundleTarget(client *http.Client) bundle.Target {
	t := bundle.Target{Name: m.Name, BaseURL: m.BaseURL}
	if m.Metrics == nil {
		return t // plain HTTP member: let capture fetch directly
	}
	t.Fetch = func(ctx context.Context, path string) ([]byte, error) {
		switch {
		case path == "/metrics":
			text, err := m.Metrics(ctx)
			if err != nil {
				return nil, err
			}
			return []byte(text), nil
		case m.BaseURL == "":
			return nil, fmt.Errorf("no base URL for %s", path)
		default:
			return bundle.HTTPFetch(ctx, client, m.BaseURL+path)
		}
	}
	return t
}

// BundleTargets enumerates every member of the balancer as a capture
// target, in membership order — the input for a fleet-wide
// bundle.Capture.
func (b *Balancer) BundleTargets() []bundle.Target {
	members := b.Members()
	out := make([]bundle.Target, len(members))
	for i, m := range members {
		out[i] = m.BundleTarget(b.client)
	}
	return out
}
