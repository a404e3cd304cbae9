//go:build !predata_poison

package predata

// poisonReclaimed is set by the predata_poison build tag: Client.reclaim
// fills every frame it takes back with 0xA5 before the next encode.
const poisonReclaimed = false
