package rtrace

// The reference builder and its collector, for the external test
// package: its engine-log differential test drives a served stream,
// which package rtrace cannot import.

type RefCollector = refCollector

func NewRefCollector(nets int) *RefCollector { return newRefCollector(nets) }

func RefBuild(in Input, c *RefCollector) []RequestSpan { return refBuild(in, c) }
