//go:build !unix

package pressd

import "os"

// Off Unix there is no SIGUSR1 to send a process, so awaitStop serves
// only its stop signals: a nil signal is one signal.Notify ignores and
// no delivered signal equals.
var dumpSignal, incidentSignal os.Signal
