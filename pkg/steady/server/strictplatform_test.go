package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/pkg/steady/server"
)

// platformEndpoints posts a platform to each endpoint that takes one,
// wrapped in that endpoint's minimal request body.
var platformEndpoints = []struct {
	path string
	body func(plat string) map[string]any
}{
	{"/v1/solve", func(plat string) map[string]any {
		return map[string]any{"problem": "masterslave", "platform": json.RawMessage(plat)}
	}},
	{"/v1/simulate", func(plat string) map[string]any {
		return map[string]any{"problem": "masterslave", "platform": json.RawMessage(plat)}
	}},
	{"/v1/deployments", func(plat string) map[string]any {
		return map[string]any{"id": "strict", "problem": "masterslave", "platform": json.RawMessage(plat)}
	}},
	{"/v1/sweep", func(plat string) map[string]any {
		return map[string]any{"problem": "masterslave", "platforms": []json.RawMessage{json.RawMessage(plat)}}
	}},
}

// postStatus posts body to url and returns the status and error text.
func postStatus(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("%s: status %d with undecodable error body (%v)", url, resp.StatusCode, err)
	}
	return resp.StatusCode, e.Error
}

// TestUnknownPlatformFieldsRejected pins that the request decoder's
// unknown-field strictness reaches inside the platform object: a typo
// at the platform, node or edge level answers 400 and names the key,
// instead of being silently dropped.
func TestUnknownPlatformFieldsRejected(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	const (
		nodes = `[{"name":"A","w":"1"},{"name":"B","w":"2"}]`
		edges = `[{"from":"A","to":"B","c":"1"}]`
	)
	valid := fmt.Sprintf(`{"nodes":%s,"edges":%s}`, nodes, edges)
	typos := []struct {
		level, key, plat string
	}{
		{"platform", "edge", fmt.Sprintf(`{"nodes":%s,"edges":%s,"edge":[]}`, nodes, edges)},
		{"node", "weight", fmt.Sprintf(`{"nodes":[{"name":"A","w":"1"},{"name":"B","weight":"2"}],"edges":%s}`, edges)},
		{"edge", "cost", fmt.Sprintf(`{"nodes":%s,"edges":[{"from":"A","to":"B","c":"1","cost":"1"}]}`, nodes)},
	}
	for _, ep := range platformEndpoints {
		if code, msg := postStatus(t, ts.URL+ep.path, ep.body(valid)); code != http.StatusOK {
			t.Fatalf("%s: valid platform answered %d: %s", ep.path, code, msg)
		}
		for _, tc := range typos {
			code, msg := postStatus(t, ts.URL+ep.path, ep.body(tc.plat))
			if code != http.StatusBadRequest {
				t.Errorf("%s: unknown %s key: status %d, want 400 (%s)", ep.path, tc.level, code, msg)
				continue
			}
			if want := fmt.Sprintf("unknown field %q", tc.key); !strings.Contains(msg, want) {
				t.Errorf("%s: unknown %s key: error %q does not mention %s", ep.path, tc.level, msg, want)
			}
		}
	}
}

// TestOversizedPlatformRejectedBeforeBuild pins that the size limits
// are checked on the decoded node and edge counts, before the platform
// is built: an oversized platform that is also invalid (a duplicate
// node name, which building would report as 400) answers 413.
func TestOversizedPlatformRejectedBeforeBuild(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxNodes: 3, MaxEdges: 2})
	cases := []struct {
		name, plat string
	}{
		{"nodes", `{"nodes":[{"name":"A","w":"1"},{"name":"A","w":"1"},{"name":"B","w":"1"},{"name":"C","w":"1"}],"edges":[]}`},
		{"edges", `{"nodes":[{"name":"A","w":"1"},{"name":"A","w":"1"}],"edges":[` +
			`{"from":"A","to":"B","c":"1"},{"from":"A","to":"B","c":"1"},{"from":"A","to":"B","c":"1"}]}`},
	}
	for _, ep := range platformEndpoints {
		for _, tc := range cases {
			if code, msg := postStatus(t, ts.URL+ep.path, ep.body(tc.plat)); code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: too many %s: status %d, want 413 (%s)", ep.path, tc.name, code, msg)
			}
		}
	}
}
