// Package redirect implements SUV's single-update version-management
// machinery: redirect entries with the four states of Table II, the
// preserved redirect pool, the two-level redirect table (a zero-latency
// 512-entry fully-associative first level per core and a 10-cycle
// 16K-entry 8-way shared second level — Table III) with software-managed
// overflow to memory, the per-transaction journal that makes commit and
// abort single flash operations, and the redirect-back optimization that
// keeps the table small under repeated updates to the same variable.
package redirect

import "fmt"

// State is a redirect entry's state, encoded by the (global, valid) bit
// pair of Table II.
type State uint8

const (
	// Free is (global=0, valid=0): the slot holds no mapping.
	Free State = iota
	// GlobalValid is (global=1, valid=1): the mapping applies to all
	// memory accesses, inside and outside transactions.
	GlobalValid
	// TransientAdd is (global=0, valid=1): the mapping was created by a
	// still-running transaction and applies only to its own accesses.
	TransientAdd
	// TransientDelete is (global=1, valid=0): a globally valid mapping
	// that the owning transaction has redirected back; the owner accesses
	// the original address, everyone else still follows the mapping.
	TransientDelete
)

// String names the state.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case GlobalValid:
		return "global-valid"
	case TransientAdd:
		return "transient-add"
	case TransientDelete:
		return "transient-delete"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}
