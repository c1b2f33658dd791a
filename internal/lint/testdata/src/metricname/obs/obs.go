// Minimal stand-in for the real obs package: just enough surface for the
// metricname analyzer to resolve registration entry points. The analyzer
// matches by package name and method signature, so this fixture exercises
// the same code paths as the real registry.
package obs

type Registry struct{}

type Counter struct{}
type Gauge struct{}
type Histogram struct{}
type Span struct{}
type WindowedHistogram struct{}
type Trace struct{}

func (r *Registry) Counter(name string) *Counter            { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge                { return &Gauge{} }
func (r *Registry) Histogram(name string) *Histogram        { return &Histogram{} }
func (r *Registry) StartSpan(name string) *Span             { return &Span{} }
func (r *Registry) Windowed(name string) *WindowedHistogram { return &WindowedHistogram{} }

func (h *Histogram) Observe(v float64)         {}
func (w *WindowedHistogram) Observe(v float64) {}
func (s *Span) End()                           {}

func StartSpan(name string) *Span { return &Span{} }

// NewTrace's argument is a request label (often the raw query text), not a
// metric name: the analyzer must leave it alone.
func NewTrace(name string) *Trace { return &Trace{} }

func (t *Trace) StartSpan(name string) *Span { return &Span{} }
