package main

// Result digests at defaultSeed: SHA-256 over the store's JSON encoding of
// each digest cell, in stream order. A batch workload's digest cells are
// its first pass; serve-mixed's are its warm set. They change only when
// simulation results change, which the repository's goldens forbid.

var pinnedFull = map[string]string{
	"wifi-grid":       "a66d8a28178da115257d27b09d81712ce389a3f215b531be192920666cba77fe",
	"abstract-largen": "8dd6e6da46f7c54e6a9a827e348c2069fee0a165f2a9f889590d7149a706df89",
	"wifi-continuous": "9a74d21f2bf725fc0ec15aaf8cd64cf0ed382af414cfe67ecf7613ac0ebc072d",
	"serve-mixed":     "c33be29e1ba22e90043447608cab6cdc94dac62bf46342c825816936a0ea364d",
}

var pinnedTiny = map[string]string{
	"wifi-grid":       "01c0b34916b2c895a4d8a37627503b59e1400ffbd9c3eb3fb30f47872fc9aa35",
	"abstract-largen": "1136acebd452aab1d301c3e647b1da187e434c3862d4f89ab6379182d69fb857",
	"wifi-continuous": "cfeaedc6141cefa61d6a553c525b9a820e1527a629c11a26c3583a97f3513aed",
	"serve-mixed":     "32b5b26896756361e27368428cc3ad339a4bbb6053667b9cb40b83c4acd889e3",
}
