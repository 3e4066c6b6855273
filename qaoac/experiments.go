package qaoac

import "repro/internal/exp"

// ExpTable is a labelled numeric result grid for one figure panel.
type ExpTable = exp.Table

// Default experiment configurations matching the paper.
var (
	DefaultFig7       = exp.DefaultFig7
	DefaultFig8       = exp.DefaultFig8
	DefaultFig9       = exp.DefaultFig9
	DefaultFig10      = exp.DefaultFig10
	DefaultFig11a     = exp.DefaultFig11a
	DefaultFig11b     = exp.DefaultFig11b
	DefaultFig12      = exp.DefaultFig12
	DefaultDiscussion = exp.DefaultDiscussion
)

// Experiment runners; each regenerates the series of one paper figure.
var (
	Fig7       = exp.Fig7
	Fig8       = exp.Fig8
	Fig9       = exp.Fig9
	Fig10      = exp.Fig10
	Fig11a     = exp.Fig11a
	Fig11b     = exp.Fig11b
	Fig12      = exp.Fig12
	Discussion = exp.Discussion
)
