import pytest

from promrep import clear_caches


@pytest.fixture(autouse=True)
def cold_kernel_caches():
    """Start and leave each test with empty kernel caches, so that a test
    that patches a kernel builder never meets, or leaves behind, a cached
    result of another build."""
    clear_caches()
    yield
    clear_caches()
