package serve

import (
	"context"
	"log"
	"net/http"
)

// recoverMW converts a panicking handler into a 500 instead of killing the
// process — the outermost layer of the stack.
func (s *Server) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.nPanics.Add(1)
				log.Printf("serve: recovered panic in %s %s: %v", r.Method, r.URL.Path, rec)
				httpError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admitMW bounds in-flight work requests. Overload is answered immediately
// with 429 + Retry-After rather than queueing: under heavy traffic a bounded
// queue only converts overload into latency.
func (s *Server) admitMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			s.nRequests.Add(1)
			next.ServeHTTP(w, r)
		default:
			s.nRejected.Add(1)
			w.Header().Set("Retry-After", s.retryAfterHint())
			httpError(w, http.StatusTooManyRequests, "server at capacity")
		}
	})
}

// timeoutMW bounds one request end to end via its context.
func (s *Server) timeoutMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// limitBodyMW caps the request body; oversized bodies surface as
// *http.MaxBytesError from Decode and are answered with 413.
func (s *Server) limitBodyMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.lim.bodyBytes)
		next.ServeHTTP(w, r)
	})
}
