"""StudyServer lifecycle: close() is prompt and ends the accept thread."""

import time

from repro.distrib.server import StudyServer


def test_close_wakes_the_blocked_accept_thread():
    server = StudyServer(workers=1).start()
    accept_thread = server._accept_thread
    time.sleep(0.05)  # let the accept thread block inside accept()
    t0 = time.perf_counter()
    server.close()
    assert time.perf_counter() - t0 < 0.5
    assert not accept_thread.is_alive()
