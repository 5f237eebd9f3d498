package ra

// BindUnpruned binds a plan node for node, without Bind's column-pruning
// pass: the reference the pruning differential tests hold Bind against.
var BindUnpruned = bindPlan
