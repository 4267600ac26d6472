package server

import "qproc/internal/runstore"

// The tests spell runstore's job statuses by these short names.
const (
	statusQueued      = runstore.StatusQueued
	statusRunning     = runstore.StatusRunning
	statusDone        = runstore.StatusDone
	statusFailed      = runstore.StatusFailed
	statusCanceled    = runstore.StatusCanceled
	statusInterrupted = runstore.StatusInterrupted
)
