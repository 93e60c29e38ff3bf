// Fixture for the goroutine-discipline rule: bare go statements are banned
// outside internal/proc.
package goroutine

func spawn(work func()) {
	go work() // want "bare go statement"
	done := make(chan struct{})
	go func() { // want "bare go statement"
		defer close(done)
		work()
	}()
	<-done
}
