// Method roots of the nondet fixture: Maintainer.CanonicalSynopsis is a
// root, while a method that merely shares a package-level root's name is
// not.
package stable

import "time"

// Maintainer stands in for the live summary.
type Maintainer struct{ n int }

// CanonicalSynopsis is a fingerprint-critical method root.
func (m *Maintainer) CanonicalSynopsis() int {
	if time.Now().IsZero() { /* want "time.Now" */
		return 0
	}
	return m.n
}

type builder struct{}

// Build is a method, so the package-level root stable.Build does not name
// it and its clock read is not reported.
func (builder) Build() int64 { return time.Now().UnixNano() }
