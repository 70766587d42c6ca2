package vtime

// Rebases reports how many times the queue has lowered last for a burst
// of late pushes.
func (q *EventQueue[T]) Rebases() int { return q.rebases }

// StorageSlack is the constant term of the arena bound in the EventQueue
// doc: Cap never exceeds twice the peak population plus this many events
// (or the size hint, if larger).
const StorageSlack = storageSlack
