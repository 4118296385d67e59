package memlayout

import "pimsim/internal/snap"

// Snap codes the allocator's high-water mark and every allocated byte.
// Layout (which addresses hold what) is not recorded — it is a pure
// function of the workload's deterministic Streams() construction,
// which a resuming run replays before overlaying these bytes. The
// high-water mark is geometry: a mismatch means the resuming run was
// not built identically and fails the restore.
func (s *Store) Snap(c *snap.Coder) {
	c.Section("STOR")
	c.Expect("memlayout: allocation high-water mark", int(s.next))
	c.Bytes(s.mem[:s.next])
}
