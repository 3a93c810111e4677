package netcore

// SameNets exposes sameNets to the external tests of this package.
var SameNets = sameNets
