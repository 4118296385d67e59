// Seeded violations and accepted patterns for the statshandle analyzer.
package statshandle

import "pimsim/internal/stats"

// Core is a mock per-event component.
type Core struct {
	reg  *stats.Registry
	hits stats.Handle
}

// New resolves handles at construction time — the pattern the analyzer
// steers authors toward.
func New(reg *stats.Registry) *Core {
	return &Core{reg: reg, hits: reg.Counter("core.hits")}
}

// OnEvent is a hot root: every scheduled event runs through one, so
// direct string-keyed calls are flagged.
func (c *Core) OnEvent(arg int64) {
	c.hits.Inc()             // handle update: allowed
	c.reg.Inc("core.events") // want `string-keyed stats.Registry.Inc in OnEvent's call tree`
	c.bump()
}

// bump is reachable from OnEvent, so the string-keyed call inside it is
// flagged transitively.
func (c *Core) bump() {
	c.reg.Add("core.bumps", 1) // want `string-keyed stats.Registry.Add in OnEvent's call tree \(via bump\)`
}

// Step is a hot root too; reads are as banned as writes.
func (c *Core) Step() int64 {
	return c.reg.Get("core.hits") // want `string-keyed stats.Registry.Get in Step's call tree`
}

// Schedule with a deliberate, documented exception.
func (c *Core) Schedule(delay int64) {
	c.reg.Set("core.last_delay", delay) //peilint:allow statshandle one write per schedule tracepoint, measured irrelevant
}

// Summary is a cold path: string-keyed reads are fine here.
func (c *Core) Summary() int64 {
	return c.reg.Get("core.hits") + c.reg.Get("core.bumps")
}

// Controller mirrors a self-scheduling component whose wakeup event
// runs a package-local helper: the counter bump inside the helper is
// still per-event work.
type Controller struct {
	reg    *stats.Registry
	pumpAt int64
}

// OnEvent is the controller's wakeup handler.
func (c *Controller) OnEvent(arg int64) {
	c.pumpAt = -1
	c.pump()
}

func (c *Controller) pump() {
	c.reg.Inc("ctrl.pumps") // want `string-keyed stats.Registry.Inc in OnEvent's call tree \(via pump\)`
}
