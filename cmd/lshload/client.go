package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// The benchmark's HTTP side: the operations it sends to a server (child
// process or in-process) and the /stats and /metrics pages it scrapes.

// connections is the fixed client count: two connections, two workers.
const connections = 2

type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        connections,
			MaxIdleConnsPerHost: connections,
			MaxConnsPerHost:     connections,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// searchBody is the /v1/search request for q with nothing but the query:
// every knob stays at the server's default.
func searchBody(q []float32) []byte {
	b, _ := json.Marshal(struct {
		Query []float32 `json:"query"`
	}{q})
	return b
}

func insertBody(v []float32) []byte {
	b, _ := json.Marshal(struct {
		Vector []float32 `json:"vector"`
	}{v})
	return b
}

// send performs one request and reads the whole reply. A transport error or
// any status but 200 is a failed operation, named by its cause.
func (c *client) send(method, path string, body []byte) (reply []byte, fail string) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "bad-request"
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "transport-error"
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "transport-error"
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return reply, "shed-429"
	}
	if resp.StatusCode != http.StatusOK {
		return reply, "status-" + strconv.Itoa(resp.StatusCode) + ":" + strings.TrimSpace(string(reply[:min(len(reply), 80)]))
	}
	return reply, ""
}

func (c *client) search(body []byte) response {
	reply, fail := c.send(http.MethodPost, "/v1/search", body)
	r := response{Fail: fail, ReqBytes: len(body), RespBytes: len(reply)}
	if fail != "" {
		return r
	}
	var env struct {
		Neighbors []neighbor `json:"neighbors"`
		Partial   bool       `json:"partial"`
		Stats     struct {
			NIO int `json:"n_io"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(reply, &env); err != nil {
		r.Fail = "bad-json"
		return r
	}
	r.Neighbors, r.Partial, r.NIO = env.Neighbors, env.Partial, env.Stats.NIO
	if r.Partial {
		r.Fail = "partial"
	}
	return r
}

func (c *client) insert(body []byte) response {
	reply, fail := c.send(http.MethodPost, "/v1/insert", body)
	r := response{Fail: fail, ReqBytes: len(body), RespBytes: len(reply)}
	if fail != "" {
		return r
	}
	var env struct {
		ID uint32 `json:"id"`
	}
	if err := json.Unmarshal(reply, &env); err != nil {
		r.Fail = "bad-json"
		return r
	}
	r.ID = env.ID
	return r
}

func (c *client) delete(id uint32) response {
	reply, fail := c.send(http.MethodDelete, "/v1/object/"+strconv.FormatUint(uint64(id), 10), nil)
	r := response{Fail: fail, RespBytes: len(reply)}
	if fail != "" {
		return r
	}
	var env struct {
		Removed bool `json:"removed"`
	}
	if err := json.Unmarshal(reply, &env); err != nil {
		r.Fail = "bad-json"
	} else if !env.Removed {
		r.Fail = "delete-removed-nothing"
	}
	return r
}

// scrape is one reading of the server's /stats and /metrics pages, flattened
// to name → value. /metrics keys keep their labels, as in
// `lsh_query_latency_seconds_sum{stage="total"}`.
type scrape map[string]float64

func (c *client) scrape() (scrape, error) {
	out := scrape{}
	reply, fail := c.send(http.MethodGet, "/stats", nil)
	if fail != "" {
		return nil, fmt.Errorf("GET /stats: %s", fail)
	}
	var st map[string]any
	if err := json.Unmarshal(reply, &st); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	for k, v := range st {
		if f, ok := v.(float64); ok {
			out["stats."+k] = f
		}
	}
	reply, fail = c.send(http.MethodGet, "/metrics", nil)
	if fail != "" {
		return nil, fmt.Errorf("GET /metrics: %s", fail)
	}
	parseProm(bytes.NewReader(reply), out)
	return out, nil
}

// parseProm reads Prometheus text exposition lines `name{labels} value`.
func parseProm(r io.Reader, into scrape) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			into[line[:i]] = v
		}
	}
}

// delta is after − before for one key.
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// meanUS is the mean, in microseconds, of a Prometheus summary over the
// interval between two scrapes: Δsum ÷ Δcount. name carries no suffix;
// labels is "" or `{stage="total"}`.
func meanUS(before, after scrape, name, labels string) float64 {
	n := delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum"+labels) / n * 1e6
}
