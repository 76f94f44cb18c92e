package live

// Seq returns the current publish sequence number.
func (p *Pipeline) Seq() int64 {
	p.pub.mu.Lock()
	defer p.pub.mu.Unlock()
	return p.pub.man.Seq
}
