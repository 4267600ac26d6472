package experiments

import (
	"context"

	"qproc/internal/search"
)

// checkpointKey is the context key under which runResolved hands a
// search or portfolio run its search.CheckpointOptions: how often to
// save (single-lane jobs; portfolios save at every exchange barrier), the
// checkpoint to resume from, and the sink persisting each snapshot. They
// ride the context rather than the spec because checkpointing is an
// executor concern — it never changes a result, so it must not
// participate in job fingerprints.
type checkpointKey struct{}

// checkpointOptions returns the checkpointing ctx carries, or nil.
func checkpointOptions(ctx context.Context) *search.CheckpointOptions {
	if ctx == nil {
		return nil
	}
	ck, _ := ctx.Value(checkpointKey{}).(*search.CheckpointOptions)
	return ck
}
