package core

// Requests returns copies of the inode's queued requests in page order.
func (ino *Inode) Requests() []Request {
	out := make([]Request, len(ino.reqs.items))
	for i, r := range ino.reqs.items {
		out[i] = *r
	}
	return out
}

// Redirty re-queues the inode's UNSTABLE-acked ranges for rewrite, as
// a write-verifier change (server reboot) does.
func (c *Client) Redirty(ino *Inode) int64 { return c.redirtyUnstable(ino) }
