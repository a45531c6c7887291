package obs

// Registry mirrors the real obs registry surface.
type Registry struct{}

func (r *Registry) Counter(name string) *Counter             { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge                 { return &Gauge{} }
func (r *Registry) Histogram(name string) *Histogram         { return &Histogram{} }
func (r *Registry) GaugeFunc(name string, fn func() float64) {}

// Snapshot mirrors the registry's point-in-time view, keyed by name.
func (r *Registry) Snapshot() Snapshot { return Snapshot{} }

// Counter, Gauge, and Histogram are opaque instruments.
type Counter struct{}
type Gauge struct{}
type Histogram struct{}

func (c *Counter) Inc()                {}
func (c *Counter) Load() int64         { return 0 }
func (h *Histogram) Snapshot() float64 { return 0 }

// Snapshot holds every registered series by name.
type Snapshot struct{ Counters map[string]int64 }

// Labeled derives a labeled series name from a catalogued base.
func Labeled(name string, kv ...string) string { return name }
