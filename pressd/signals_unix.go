//go:build unix

package pressd

import (
	"os"
	"syscall"
)

// The signals awaitStop serves without stopping the server: SIGUSR1
// dumps live observability, SIGQUIT forces a flight-recorder incident.
var dumpSignal, incidentSignal os.Signal = syscall.SIGUSR1, syscall.SIGQUIT
