package collision

// Moving returns the plan's moving sum M at every grid frequency.
func (pl *MovePlan) Moving() [GridSize]float64 {
	pl.fill()
	return pl.moving
}
