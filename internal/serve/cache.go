package serve

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// outcome is one compiled artifact: the immutable payload a cache entry
// holds and every waiter of a flight receives. Nothing in it is ever
// mutated after construction, which is what makes "byte-identical circuits
// to all waiters" a structural guarantee rather than a test-only
// observation.
type outcome struct {
	// circuitJSON and qasmJSON are the circuit text and its OpenQASM export,
	// each rendered once as a JSON string literal ready to frame into a
	// response. qasmJSON is empty on an outcome bound for a request that did
	// not ask for QASM; such an outcome keeps its skeleton entry and angles
	// instead, from which a later request's response rebinds the export.
	circuitJSON string
	qasmJSON    string
	skel        *skelEntry
	gamma, beta []float64
	swaps       int
	depth       int
	gates       int
	initial     []int
	final       []int
	effective   string
	requested   string
	degraded    bool
	degradedWhy string
	attempts    int
	deviceName  string
	deviceID    string
	// Observability facts of the compile that produced the artifact: how
	// far the fallback ladder descended and the per-stage durations,
	// surfaced on wide-event lines and inspector records (only the requests
	// that waited on the compile flight report the stage times).
	fallbackDepth int
	times         compile.Times
	// trace holds the compile's decision-level events when the server runs
	// with Config.TraceRequests; nil otherwise.
	trace []trace.Event
}

// skelEntry is one cached routed skeleton plus the compile-time facts every
// binding of it shares: the breaker-chosen starting preset, whether the
// request was rerouted, and the compile's decision trace. A skeleton entry
// serves every angle set over the same (graph, device revision, preset,
// seed, packing) — binding writes the angles into a pooled buffer without
// repeating any routing work.
type skelEntry struct {
	skel     *compile.Skeleton
	start    compile.Preset
	rerouted bool
	trace    []trace.Event
}

// cacheCounters names the obsv counters one LRU tier reports to, so the
// compiled-circuit tier and the skeleton tier stay separately observable.
type cacheCounters struct {
	hits, misses, evictions, invalidations string
}

// lru is a mutex-guarded LRU keyed by the canonical request hash. Each
// entry remembers its deviceID so calibration reloads can invalidate
// exactly the entries of the affected device revision. The server runs two
// tiers: the full-key tier holds immutable compiled outcomes, the
// angle-free tier holds routed skeletons.
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	obs   *obsv.Collector
	cnt   cacheCounters
}

type cacheEntry[V any] struct {
	key      string
	deviceID string
	val      V
}

func newLRU[V any](max int, obs *obsv.Collector, cnt cacheCounters) *lru[V] {
	if max <= 0 {
		max = 1024
	}
	return &lru[V]{max: max, ll: list.New(), items: make(map[string]*list.Element), obs: obs, cnt: cnt}
}

// newCache builds the compiled-circuit tier.
func newCache(max int, obs *obsv.Collector) *lru[*outcome] {
	return newLRU[*outcome](max, obs, cacheCounters{
		hits:          obsv.CntServeCacheHits,
		misses:        obsv.CntServeCacheMisses,
		evictions:     obsv.CntServeCacheEvictions,
		invalidations: obsv.CntServeCacheInvalidations,
	})
}

// newSkelCache builds the angle-free skeleton tier.
func newSkelCache(max int, obs *obsv.Collector) *lru[*skelEntry] {
	return newLRU[*skelEntry](max, obs, cacheCounters{
		hits:          obsv.CntServeSkeletonHits,
		misses:        obsv.CntServeSkeletonMisses,
		evictions:     obsv.CntServeSkeletonEvictions,
		invalidations: obsv.CntServeSkeletonInvalidations,
	})
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.obs.Inc(c.cnt.misses) //lint:allow obsvnames: registry constant injected via cacheCounters
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.obs.Inc(c.cnt.hits) //lint:allow obsvnames: registry constant injected via cacheCounters
	return el.Value.(*cacheEntry[V]).val, true
}

func (c *lru[V]) put(key, deviceID string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, deviceID: deviceID, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[V]).key)
		c.obs.Inc(c.cnt.evictions) //lint:allow obsvnames: registry constant injected via cacheCounters
	}
}

// invalidateDevice drops every entry compiled against any epoch of the
// named registered device, returning how many were dropped. Entries of
// other devices are untouched.
func (c *lru[V]) invalidateDevice(name string) int {
	prefix := name + "@"
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry[V])
		if strings.HasPrefix(e.deviceID, prefix) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			n++
		}
		el = next
	}
	c.obs.Add(c.cnt.invalidations, int64(n)) //lint:allow obsvnames: registry constant injected via cacheCounters
	return n
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight is one in-progress skeleton compile shared by every concurrent
// request with the same skeleton key — singleflight deduplication. done is
// closed exactly once, after skel/err are set. Every waiter — each possibly
// holding different angles — binds its own parameters into the routed
// skeleton and caches the result under its own full key, so one routing
// pass serves the whole angle sweep that piled up behind it.
type flight struct {
	done chan struct{}
	skel *skelEntry
	err  error
	// queueWait and breaker are set by the leader before finish closes
	// done; waiters read them afterwards (the channel close orders the
	// accesses).
	queueWait time.Duration
	breaker   string
}

// flightGroup deduplicates concurrent compiles by key.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// join returns the flight for key, creating it when absent. leader is true
// for the caller that must run the compilation and finish the flight.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the flight's error (the leader has set f.skel on
// success), wakes every waiter, and removes the flight from the group. The
// leader must call put on the skeleton cache before finish, so a request
// arriving after removal hits the cache instead of starting a duplicate
// flight.
func (g *flightGroup) finish(key string, f *flight, err error) {
	f.err = err
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
}

// registry holds the named devices the server compiles against, each with
// a monotonically increasing calibration epoch. Devices are swapped
// copy-on-write on calibration reload: in-flight compilations keep the
// snapshot they started with, new requests see the new epoch.
type registry struct {
	mu      sync.RWMutex
	devices map[string]*regDevice
}

type regDevice struct {
	dev   *device.Device
	epoch int64
}

func newRegistry() *registry {
	return &registry{devices: make(map[string]*regDevice)}
}

// register adds (or replaces) a named device at epoch 0.
func (r *registry) register(name string, dev *device.Device) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.devices[name] = &regDevice{dev: dev}
}

func (r *registry) get(name string) (*device.Device, int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rd, ok := r.devices[name]
	if !ok {
		return nil, 0, fmt.Errorf("unknown device %q", name)
	}
	return rd.dev, rd.epoch, nil
}

// names returns the registered device names, sorted.
func (r *registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.devices))
	for n := range r.devices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// reload validates and attaches cal to a fresh copy of the named device and
// bumps its calibration epoch — the service form of the
// SetCalibration-invalidates-caches discipline. The returned epoch is the
// new one.
func (r *registry) reload(name string, cal *device.Calibration) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd, ok := r.devices[name]
	if !ok {
		return 0, fmt.Errorf("unknown device %q", name)
	}
	// Fresh Device so in-flight compiles keep their consistent snapshot;
	// SetCalibration validates and leaves the new device's distance caches
	// empty (built lazily on first use).
	next := &device.Device{Name: rd.dev.Name, Coupling: rd.dev.Coupling, Calib: rd.dev.Calib}
	if err := next.SetCalibration(cal); err != nil {
		return 0, err
	}
	rd.dev = next
	rd.epoch++
	return rd.epoch, nil
}
