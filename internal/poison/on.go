//go:build predata_poison

package poison

// Enabled is set by the predata_poison build tag.
const Enabled = true
