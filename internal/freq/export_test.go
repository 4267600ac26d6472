package freq

import (
	"qproc/internal/collision"
	"qproc/internal/yield"
)

// ResetShared empties the process-wide table, so that the next Allocate
// calls fill it afresh. Call it only while no Allocate runs.
func ResetShared() {
	shared = collision.NewMarginals(collision.DefaultParams(), yield.DefaultSigma)
}
