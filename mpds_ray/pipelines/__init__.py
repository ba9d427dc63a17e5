"""Ray task pipelines: flagship tokens engine + query library."""
