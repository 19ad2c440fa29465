"""python -m tractodist: the command-line interface, from a checkout or an install."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
