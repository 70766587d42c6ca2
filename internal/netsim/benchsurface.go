package netsim

// SetDeliveryScheduler does nothing: the network calls nothing back, and
// the caller of Send queues a message's delivery from its Arrive. It
// stays because bench/probes.go:236 calls it before timing Send and Recv
// as netsim.send_recv_ns.
func (n *Network) SetDeliveryScheduler(any) {}
