package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"time"
)

// outcome is what one request produced, seen from the client.
type outcome struct {
	Status int
	Lat    time.Duration
	Bytes  int
}

// sender performs request i of client c's stream and returns the answer.
// The body is only valid until the next call on the same client.
type sender func(c, i int) (status int, body []byte, err error)

// replay runs every stream of p to completion, one closed-loop goroutine
// per stream: a client sends its next request only after the previous
// answer is fully read. A barrier request is sent only once every stream
// has reached it, so both clients ask that placement at once. check sees
// every answer body; it runs on the client goroutine.
//
// The streams are replayed in `segments` consecutive slices of equal
// length; every client finishes slice k before any starts slice k+1, and
// between(k) runs in that gap. It returns each slice's wall time.
func replay(p *plan, segments int, send sender, check func(c, i, status int, body []byte), between func(k int)) ([][]outcome, []time.Duration) {
	nb := 0
	for _, rq := range p.Streams[0] {
		if rq.Barrier {
			nb++
		}
	}
	barriers := make([]sync.WaitGroup, nb)
	for i := range barriers {
		barriers[i].Add(len(p.Streams))
	}
	out := make([][]outcome, len(p.Streams))
	next := make([]int, len(p.Streams)) // each client's next barrier
	for c := range out {
		out[c] = make([]outcome, len(p.Streams[c]))
	}
	var walls []time.Duration
	for k := 0; k < segments; k++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for c, stream := range p.Streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := k * len(stream) / segments; i < (k+1)*len(stream)/segments; i++ {
					if stream[i].Barrier {
						barriers[next[c]].Done()
						barriers[next[c]].Wait()
						next[c]++
					}
					start := time.Now()
					status, body, err := send(c, i)
					lat := time.Since(start)
					if err != nil {
						status = 0
					}
					out[c][i] = outcome{Status: status, Lat: lat, Bytes: len(body)}
					check(c, i, status, body)
				}
			}(c)
		}
		wg.Wait()
		walls = append(walls, time.Since(t0))
		between(k)
	}
	return out, walls
}

// httpSender posts the pre-encoded bodies to addr over one keep-alive
// connection per client.
func httpSender(addr string, bodies [][][]byte) sender {
	url := "http://" + addr + "/v1/search"
	clients := make([]*http.Client, len(bodies))
	bufs := make([]*bytes.Buffer, len(bodies))
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
		bufs[c] = new(bytes.Buffer)
	}
	return func(c, i int) (int, []byte, error) {
		resp, err := clients[c].Post(url, "application/json", bytes.NewReader(bodies[c][i]))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		buf := bufs[c]
		buf.Reset()
		if _, err := io.Copy(buf, resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
}

// capture keeps, per distinct question (placement name, memory, N), the
// first answer body whole and a hash of its schedule; every later answer
// must carry the byte-identical schedule.
type capture struct {
	mu       sync.Mutex
	seed     maphash.Seed
	first    map[question][]byte
	hash     map[question]uint64
	count    map[question]int
	mismatch []string
	nonOK    map[int]int
}

// question identifies one distinct request: the placement (by wire name
// and key) and the micro-batch count.
type question struct {
	Key  int
	Name string
	N    int
}

func newCapture() *capture {
	return &capture{
		seed: maphash.MakeSeed(), first: map[question][]byte{}, hash: map[question]uint64{},
		count: map[question]int{}, nonOK: map[int]int{},
	}
}

var scheduleField = []byte(`"schedule":`)

func (cp *capture) add(q question, status int, body []byte) {
	if status != http.StatusOK {
		cp.mu.Lock()
		cp.nonOK[status]++
		cp.mu.Unlock()
		return
	}
	at := bytes.Index(body, scheduleField)
	if at < 0 {
		at = len(body)
	}
	h := maphash.Bytes(cp.seed, body[at:])
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.count[q]++
	if prev, ok := cp.hash[q]; ok {
		if prev != h {
			cp.mismatch = append(cp.mismatch, fmt.Sprintf("%s n=%d: schedule differs between answers", q.Name, q.N))
		}
		return
	}
	cp.hash[q] = h
	cp.first[q] = bytes.Clone(body)
}
